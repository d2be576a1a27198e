"""Hash what the CLI prints for every command of the benchmark workloads, and compare hashes.

    python tests/same_bytes.py hash OUT.json [--src DIR]
    python tests/same_bytes.py diff OLD.json NEW.json

``hash`` builds the command lines of ``bench/workloads.py`` at seeds 1-3, the
warm-ups included. To reach code the workloads never run, it adds each curve
``--summary`` command line again without ``--summary`` (the full report), each
batch ``fit`` again at the CLI defaults (``--tol 1e-8``), and the fixed ``EDGES``:
domain edges, warnings, fits whose line search compares objectives a few ulps
apart (a log that once stalled) or takes a rare path, logs on either side of the
plain-log fast path of ``estimate._read_log``, and the top-level and
every subcommand's ``--help`` (wrapped at ``COLUMNS=80``, whatever the terminal).
It runs each distinct one once through ``skillcheck.cli.main`` in this process and writes
``{command line: sha256 of exit code, stdout and stderr}`` as JSON. ``--src``
names the source tree to import ``skillcheck`` from (this checkout's ``src`` by
default), so that one checkout's command lines can be run against another's code,
one process each. The fit logs are written to a temporary directory and named
relative to it, so two runs give the same command lines.

``diff`` prints how many command lines differ between two such files (one missing
from either file counts), then the first few of them. It exits 1 if any differ.

Files under ``bench/`` are only read. pytest does not collect this file.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import hashlib
import io
import itertools
import json
import os
import shlex
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SEEDS = (1, 2, 3)
SHOWN = 10  # differing command lines that ``diff`` prints

# Every subcommand, each of whose ``--help`` is in EDGES.
SUBCOMMANDS = ("dist", "check", "opposed", "grade", "evidence", "compare", "figure", "fit", "simulate")

# The 12x6 log of tests/test_cli.py, whose fit is FIT_GOLDEN there.
TWELVE_BY_SIX = "".join(
    f"p{i},t{j},{bit}\n"
    for (i, j), bit in zip(
        itertools.product(range(12), range(6)),
        "000001101111011011000100110111111010001000111011110111000000111111101101",
    )
)
# Renderings of it that the plain-log fast path must leave to the csv reader, with the same
# bytes out: CRLF, a quoted id, space-padded fields, no final newline, a 9-byte id, an invalid
# UTF-8 byte past the reader's first 8 KiB chunk (its error names a position in the chunk),
# and a field longer than csv.field_size_limit().
BOUNDARY = {
    "crlf.csv": ("person,task,success\n" + TWELVE_BY_SIX).replace("\n", "\r\n"),
    "quoted.csv": 'person,task,success\n"p0"' + TWELVE_BY_SIX[2:],
    "padded.csv": "person , task,success\n" + TWELVE_BY_SIX.replace(",t3,", ", t3 , "),
    "no_final_newline.csv": "person,task,success\n" + TWELVE_BY_SIX[:-1],
    "nine_byte_id.csv": "person,task,success\n" + TWELVE_BY_SIX.replace("p11,", "person011,"),
    "bad_utf8_past_8k.csv": ("person,task,success\n" + TWELVE_BY_SIX * 20).encode() + b"p\xff,t0,1\n",
    "past_field_limit.csv": "person,task,success\na,t,1\nb," + "t" * (csv.field_size_limit() + 1) + ",0\n",
}

# Domain edges and warnings, with the fit logs they read (written beside the workloads').
# The three short logs take the rare solver paths of tests/test_cli.py at --ridge 0 --slope 3.
LOGS: dict[str, str | bytes] = {
    **BOUNDARY,
    "disconnected.csv": "person,task,success\na,t1,1\na,t1,0\nb,t2,1\nb,t2,0\n",
    "all_success.csv": "person,task,success\na,t1,1\nb,t2,1\n",
    "stall_seed12_session68.csv": (ROOT / "tests" / "data" / "stall_seed12_session68.csv").read_text(),
    **{
        f"{path}.csv": "person,task,success\n" + "\n".join(rows.split()) + "\n"
        for path, rows in [
            ("step_halved", "p1,t1,0 p0,t2,0 p0,t1,0 p0,t2,1 p1,t1,0"),
            ("line_search_fails", "p1,t1,0 p0,t0,0 p1,t1,0 p1,t0,0 p0,t1,1 p1,t1,0 p1,t0,0"),
            ("newton_not_finite", "p4,t1,1 p4,t1,1 p0,t0,1 p0,t1,1 p3,t0,0 p3,t1,0 p4,t1,1 p3,t1,0"),
        ]
    },
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
    ["fit", "--input", "disconnected.csv"],
    ["fit", "--input", "all_success.csv", "--ridge", "0"],
    ["fit", "--input", "stall_seed12_session68.csv"],
    *(["fit", "--input", log, "--ridge", "0", "--slope", "3"]
      for log in ("step_halved.csv", "line_search_fails.csv", "newton_not_finite.csv")),
    *(["fit", "--input", log] for log in BOUNDARY),
    ["--help"],
    *([command, "--help"] for command in SUBCOMMANDS),
]


def command_lines() -> dict[str, list[str]]:
    """Every distinct command line of the workloads at SEEDS, then the full curve reports
    and EDGES, keyed by its shell form.

    Writes the fit logs under the working directory.
    """
    sys.path.insert(0, str(ROOT / "bench"))
    import workloads

    argvs: list[list[str]] = []
    for name in workloads.WORKLOADS:
        for seed in SEEDS:
            folder = Path(f"{name}-{seed}")
            folder.mkdir()
            workload = workloads.build(name, seed, folder)
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


def digest(cli, argv: list[str]) -> str:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = str(cli.main(argv))
        except Exception as exc:  # an exception escaping main is an outcome too
            code = f"raised {type(exc).__name__}: {exc}"
    return hashlib.sha256(f"{code}\0{out.getvalue()}\0{err.getvalue()}".encode()).hexdigest()


def hash_outputs(out: Path, src: Path) -> None:
    for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ.setdefault(name, "1")  # before numpy is first imported
    os.environ["COLUMNS"] = "80"  # argparse wraps help text to the terminal's width
    sys.path.insert(0, str(src))
    from skillcheck import cli

    if not Path(cli.__file__).resolve().is_relative_to(src):
        sys.exit(f"error: skillcheck imported from {cli.__file__}, not {src}")
    with tempfile.TemporaryDirectory() as tmp:
        os.chdir(tmp)
        hashes = {line: digest(cli, argv) for line, argv in command_lines().items()}
    out.write_text(json.dumps(hashes, indent=0, sort_keys=True) + "\n")
    print(f"{len(hashes)} command lines hashed into {out}")


def diff(old: Path, new: Path) -> int:
    a, b = json.loads(old.read_text()), json.loads(new.read_text())
    differ = sorted(line for line in a.keys() | b.keys() if a.get(line) != b.get(line))
    print(f"{len(differ)} of {len(a.keys() | b.keys())} command lines differ in exit code, stdout or stderr")
    for line in differ[:SHOWN]:
        print(f"- `{line}`" + ("" if line in a and line in b else " (in one file only)"))
    return 1 if differ else 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    sub = parser.add_subparsers(dest="command", required=True)
    p = sub.add_parser("hash", help="hash the outputs of every workload command line")
    p.add_argument("out", type=Path, help="JSON file to write")
    p.add_argument("--src", type=Path, default=ROOT / "src", help="source tree holding skillcheck")
    p = sub.add_parser("diff", help="list the command lines whose hashes differ")
    p.add_argument("old", type=Path)
    p.add_argument("new", type=Path)
    args = parser.parse_args()
    if args.command == "diff":
        return diff(args.old, args.new)
    hash_outputs(args.out.resolve(), args.src.resolve())
    return 0


if __name__ == "__main__":
    sys.exit(main())
