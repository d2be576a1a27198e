"""Hash what the CLI prints for every command of the benchmark workloads, and compare hashes;
sweep every benchmark fit log at four flag sets, and compare sweeps.

    python tests/same_bytes.py hash OUT.json [--src DIR]
    python tests/same_bytes.py diff OLD.json NEW.json
    python tests/same_bytes.py sweep OUT.json [--src DIR]
    python tests/same_bytes.py sweep-diff OLD.json NEW.json

``hash`` builds the command lines of ``bench/workloads.py`` at seeds 1-3, the
warm-ups included. To reach code the workloads never run, it adds each curve
``--summary`` command line again without ``--summary`` (the full report), each
batch ``fit`` again at the CLI defaults (``--tol 1e-8``), and the fixed ``EDGES``:
domain edges, per-trial ``simulate`` rows past trials 10,000 and 100,000 (where the
trial number gains a digit inside a block of draws), warnings, fits whose line
search compares objectives a few ulps apart (a log that once stalled) or takes a
rare path, logs on either side of the plain-log fast path of ``estimate._read_log``
(one with a byte-order mark, which it reads; CRLF, quoted, padded, no final newline,
a 9-byte id, an invalid UTF-8 byte past 8 KiB and a field past the csv field limit,
which it leaves), the top-level and every subcommand's ``--help`` (wrapped at
``COLUMNS=80``, whatever the terminal), and command lines on the edges of ``main``'s
direct route to a command's own parser (leftovers, ``--``, an early ``-h``, an
abbreviation, an unknown command).
It runs each distinct one (1,292 in all) once through ``skillcheck.cli.main`` in this
process and writes ``{command line: sha256 of exit code, stdout and stderr}`` as JSON.
``--src`` names the source tree to import ``skillcheck`` from (this checkout's ``src`` by
default), so that one checkout's command lines can be run against another's code,
one process each. The fit logs are written to a temporary directory and named
relative to it, so two runs give the same command lines. The edges' fit logs are the
stalled log under ``tests/data``, renderings of the 12x6 log, and the warning and
rare-path logs, each named after its key in ``tests/fit_logs.py``.

``diff`` prints how many command lines differ between two such files (one missing
from either file counts), then the first few of them. It exits 1 if any differ.

``sweep`` writes the fit logs of the workloads at seeds 1-3 (two batch logs and the
session logs of each) and the logs under ``tests/data``, fits each one at every flag
set of ``FLAGS``, and writes ``{flag set: {log: {"stdout": ..., "bits": ...}}}`` as
JSON; ``--src`` as for ``hash``. ``bits`` holds the abilities, the difficulties and
the log-likelihood as ``float.hex``, from the tree's public ``fit_rasch`` and
``read_outcome_csv`` at the flag values of its ``cli.build_parser()``, so a change of a
few ulps that 12 printed digits hide still shows. ``sweep-diff`` prints, per flag set,
how many fits changed ``converged`` or ``extreme``, how many printed identical JSON, how
many are bit-identical, the iteration totals of both sweeps, and the largest logit
difference over ids that are not extreme, over all logs and over logs with no extreme
id. It exits 1 if any fit changed ``converged`` or ``extreme``, or printed no JSON.

Files under ``bench/`` are only read. pytest does not collect this file.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import hashlib
import io
import json
import os
import shlex
import shutil
import sys
import tempfile
import warnings
from pathlib import Path
from types import ModuleType

from fit_logs import SOLVER_PATHS, TWELVE_BY_SIX, WARNED

ROOT = Path(__file__).resolve().parent.parent
SEEDS = (1, 2, 3)
SHOWN = 10  # differing command lines that ``diff`` prints
DATA = ROOT / "tests" / "data"
# The flag sets of ``sweep``.
FLAGS = {
    "bench": ["--ridge", "0.01", "--tol", "1e-06", "--max-iter", "60"],  # the benchmark's
    "defaults": [],
    "ridge 0": ["--ridge", "0"],
    "slope 2.5, ridge 0.001": ["--slope", "2.5", "--ridge", "0.001"],
}

# Every subcommand, each of whose ``--help`` is in EDGES.
SUBCOMMANDS = ("dist", "check", "opposed", "grade", "evidence", "compare", "figure", "fit", "simulate")

# Renderings of the 12x6 log around the plain-log fast path, with the same bytes out: one with
# a UTF-8 byte-order mark, which the fast path reads, and those it must leave to the csv reader:
# CRLF, a quoted id, space-padded fields, no final newline, a 9-byte id, an invalid UTF-8 byte
# past the reader's first 8 KiB chunk (its error names a position in the chunk), and a field
# longer than csv.field_size_limit().
BOUNDARY = {
    "bom.csv": "\ufeff" + TWELVE_BY_SIX,
    "crlf.csv": TWELVE_BY_SIX.replace("\n", "\r\n"),
    "quoted.csv": TWELVE_BY_SIX.replace("p0,", '"p0",', 1),
    "padded.csv": TWELVE_BY_SIX.replace("person,", "person , ").replace(",t3,", ", t3 , "),
    "no_final_newline.csv": TWELVE_BY_SIX[:-1],
    "nine_byte_id.csv": TWELVE_BY_SIX.replace("p11,", "person011,"),
    "bad_utf8_past_8k.csv": (TWELVE_BY_SIX + TWELVE_BY_SIX.split("\n", 1)[1] * 19).encode() + b"p\xff,t0,1\n",
    "past_field_limit.csv": "person,task,success\na,t,1\nb," + "t" * (csv.field_size_limit() + 1) + ",0\n",
}
# The logs that warn and those that take the solver's rare paths, each at its flags.
PINNED = {**WARNED, **SOLVER_PATHS}
# Domain edges and warnings, with the fit logs they read (written beside the workloads').
LOGS: dict[str, str | bytes] = {
    **BOUNDARY,
    **{f"{name}.csv": log.text for name, log in PINNED.items()},
    "stall_seed12_session68.csv": (DATA / "stall_seed12_session68.csv").read_text(),
}
EDGES = [
    ["opposed", "--rating-a", "1e308", "--rating-b", "1e308", "--score", "1"],
    ["opposed", "--rating-a", "1e308", "--rating-b", "1e308", "--score", "1", "--k", "1e308"],
    ["opposed", "--rating-a", "-1e308", "--rating-b", "-1e308", "--score", "0.5"],
    ["check", "--model", '{"ability":1e308,"difficulty":-1e308,"slope":0}', "--seed", "1"],
    ["compare", "--pair", "normal", "--mean", "1e17", "--scale", "1"],
    ["compare", "--pair", "uniform", "--mean", "1e15", "--scale", "1"],
    ["compare", "--pair", "uniform", "--mean", "1e15", "--scale", "1", "--summary"],
    ["compare", "--pair", "normal", "--mean", "1e308", "--scale", "1e307", "--summary"],
    # Per-trial rows across the 4-to-5 and 5-to-6 digit changes, inside blocks of draws.
    *(["simulate", *target, "--n", n, "--seed", "-9"]
      for target in (["--model", '{"ability": 0.4, "difficulty": 0.1}'],
                     ["--mechanic", "binomial", "--dice", "5", "--sides", "10", "--threshold", "6",
                      "--required", "3"])
      for n in ("10001", "100001")),
    *(["fit", "--input", f"{name}.csv", *log.flags] for name, log in PINNED.items()),
    ["fit", "--input", "stall_seed12_session68.csv"],
    *(["fit", "--input", log] for log in BOUNDARY),
    ["--help"],
    *([command, "--help"] for command in SUBCOMMANDS),
    # A known command goes straight to its own parser: leftovers, `--`, an early -h, an
    # abbreviation and an `=` form there, and an unknown command, which does not.
    ["grade", "--factor", "2", "--extra"],
    ["grade", "--", "--factor", "2"],
    ["grade", "-h", "--factor", "2"],
    ["dist", "--mech", "sum", "--sides", "6", "--dice", "3"],
    ["grade", "--factor=2", "x"],
    ["frobnicate", "--factor", "2"],
]


def build_workloads(*names: str) -> tuple[ModuleType, list]:
    """``bench/workloads.py`` and each of its workloads (those named, or all) at SEEDS.

    Writes their logs under the working directory.
    """
    sys.path.insert(0, str(ROOT / "bench"))
    import workloads

    built = []
    for name in names or workloads.WORKLOADS:
        for seed in SEEDS:
            folder = Path(f"{name}-{seed}")
            folder.mkdir()
            built.append(workloads.build(name, seed, folder))
    return workloads, built


def command_lines() -> dict[str, list[str]]:
    """Every distinct command line of the workloads at SEEDS, then the full curve reports
    and EDGES, keyed by its shell form.

    Writes the fit logs under the working directory.
    """
    workloads, built = build_workloads()
    argvs: list[list[str]] = []
    for workload in built:
        argvs += [*workload.warmup, *(op.argv for op in workload.ops)]
        batch_fits = [op.argv for op in workload.ops if op.kind == workloads.BATCH and op.argv[0] == "fit"]
        argvs += [argv[:3] for argv in batch_fits]  # fit --input LOG, at the CLI defaults
    for argv in list(argvs):
        if argv[:3] in (["compare", "--pair", "normal"], ["compare", "--pair", "uniform"]):
            argvs.append([a for a in argv if a != "--summary"])
    for log, text in LOGS.items():
        Path(log).write_bytes(text.encode() if isinstance(text, str) else text)
    lines: dict[str, list[str]] = {}
    for argv in [*argvs, *EDGES]:
        lines.setdefault(shlex.join(argv), argv)
    return lines


def import_cli(src: Path) -> ModuleType:
    """``skillcheck.cli`` from the source tree ``src``, with one BLAS thread."""
    for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ.setdefault(name, "1")  # before numpy is first imported
    sys.path.insert(0, str(src))
    from skillcheck import cli

    if not Path(cli.__file__).resolve().is_relative_to(src):
        sys.exit(f"error: skillcheck imported from {cli.__file__}, not {src}")
    return cli


def outcome(cli: ModuleType, argv: list[str]) -> tuple[str, str, str]:
    """Exit code, stdout and stderr of one command line."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = str(cli.main(argv))
        except Exception as exc:  # an exception escaping main is an outcome too
            code = f"raised {type(exc).__name__}: {exc}"
    return code, out.getvalue(), err.getvalue()


def hash_outputs(out: Path, src: Path) -> None:
    os.environ["COLUMNS"] = "80"  # argparse wraps help text to the terminal's width
    cli = import_cli(src)
    with tempfile.TemporaryDirectory() as tmp:
        os.chdir(tmp)
        hashes = {
            line: hashlib.sha256("\0".join(outcome(cli, argv)).encode()).hexdigest()
            for line, argv in command_lines().items()
        }
    out.write_text(json.dumps(hashes, indent=0, sort_keys=True) + "\n")
    print(f"{len(hashes)} command lines hashed into {out}")


def sweep(out: Path, src: Path) -> None:
    cli = import_cli(src)
    from skillcheck import fit_rasch, read_outcome_csv  # public names, so any tree has them

    parser = cli.build_parser()
    with tempfile.TemporaryDirectory() as tmp:
        os.chdir(tmp)
        logs = sorted({op.argv[2] for workload in build_workloads("fit")[1] for op in workload.ops})
        for path in sorted(DATA.glob("*.csv")):
            shutil.copy(path, path.name)
            logs.append(path.name)
        fits: dict[str, dict] = {flags: {} for flags in FLAGS}
        for log in logs:
            records = read_outcome_csv(log)
            for flags, extra in FLAGS.items():
                argv = ["fit", "--input", log, *extra]
                args = parser.parse_args(argv)
                with warnings.catch_warnings():
                    warnings.simplefilter("ignore", RuntimeWarning)  # the divergence --ridge 0 warns of
                    fit = fit_rasch(records, slope=args.slope, ridge=args.ridge, max_iter=args.max_iter,
                                    tol=args.tol)
                values = (fit.abilities, fit.difficulties, {"log_likelihood": fit.log_likelihood})
                bits = [{name: float.hex(value) for name, value in d.items()} for d in values]
                fits[flags][log] = {"stdout": outcome(cli, argv)[1], "bits": bits}
    out.write_text(json.dumps(fits, indent=0, sort_keys=True) + "\n")
    print(f"{len(logs)} logs fitted at {len(FLAGS)} flag sets into {out}")


def diff(old: Path, new: Path) -> int:
    a, b = json.loads(old.read_text()), json.loads(new.read_text())
    differ = sorted(line for line in a.keys() | b.keys() if a.get(line) != b.get(line))
    print(f"{len(differ)} of {len(a.keys() | b.keys())} command lines differ in exit code, stdout or stderr")
    for line in differ[:SHOWN]:
        print(f"- `{line}`" + ("" if line in a and line in b else " (in one file only)"))
    return 1 if differ else 0


def sweep_diff(old: Path, new: Path) -> int:
    a, b = json.loads(old.read_text()), json.loads(new.read_text())
    bad = 0
    for flags in sorted(a.keys() | b.keys()):
        logs = a.get(flags, {}).keys() | b.get(flags, {}).keys()
        same = bit_identical = flipped = broken = 0
        iterations = [0, 0]
        worst = {"all logs": 0.0, "logs with no extreme id": 0.0}
        for log in sorted(logs):
            try:
                fits = [json.loads(fitted[flags][log]["stdout"]) for fitted in (a, b)]
            except (KeyError, json.JSONDecodeError):
                broken += 1
                continue
            same += a[flags][log]["stdout"] == b[flags][log]["stdout"]
            bit_identical += a[flags][log]["bits"] == b[flags][log]["bits"]
            flipped += any(fits[0][key] != fits[1][key] for key in ("converged", "extreme"))
            iterations = [total + fit["iterations"] for total, fit in zip(iterations, fits)]
            extreme = set(fits[0]["extreme"]) | set(fits[1]["extreme"])
            old_logits, new_logits = ({**fit["abilities"], **fit["difficulties"]} for fit in fits)
            gap = max((abs(old_logits[k] - new_logits[k]) for k in old_logits.keys() - extreme), default=0.0)
            worst["all logs"] = max(worst["all logs"], gap)
            if not extreme:
                worst["logs with no extreme id"] = max(worst["logs with no extreme id"], gap)
        bad += flipped + broken
        print(f"{flags}: {len(logs)} fits")
        print(f"- converged or extreme changed: {flipped}; no JSON from a sweep: {broken}")
        print(f"- identical JSON: {same}")
        print(f"- bit-identical: {bit_identical}")
        print(f"- iterations: {iterations[0]} -> {iterations[1]}")
        for over, gap in worst.items():
            print(f"- largest logit difference over ids not extreme, {over}: {gap:.3g}")
    return 1 if bad else 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    sub = parser.add_subparsers(dest="command", required=True)
    for command, text in [
        ("hash", "hash the outputs of every workload command line"),
        ("sweep", "fit every benchmark fit log at every flag set"),
    ]:
        p = sub.add_parser(command, help=text)
        p.add_argument("out", type=Path, help="JSON file to write")
        p.add_argument("--src", type=Path, default=ROOT / "src", help="source tree holding skillcheck")
    for command, text in [
        ("diff", "list the command lines whose hashes differ"),
        ("sweep-diff", "compare two sweeps"),
    ]:
        p = sub.add_parser(command, help=text)
        p.add_argument("old", type=Path)
        p.add_argument("new", type=Path)
    args = parser.parse_args()
    if args.command in ("diff", "sweep-diff"):
        return (diff if args.command == "diff" else sweep_diff)(args.old, args.new)
    (hash_outputs if args.command == "hash" else sweep)(args.out.resolve(), args.src.resolve())
    return 0


if __name__ == "__main__":
    sys.exit(main())
