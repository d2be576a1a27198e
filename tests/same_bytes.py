"""Hash what the CLI prints for every command of the benchmark workloads, and compare hashes.

    python tests/same_bytes.py hash OUT.json [--src DIR]
    python tests/same_bytes.py diff OLD.json NEW.json

``hash`` builds the command lines of ``bench/workloads.py`` at seeds 1-3, the
warm-ups included. It runs each distinct one once through ``skillcheck.cli.main``
in this process and writes ``{command line: sha256 of exit code, stdout and
stderr}`` as JSON. ``--src`` names the source tree to import ``skillcheck`` from
(this checkout's ``src`` by default), so that one checkout's command lines can be
run against another's code, one process each. The fit logs are written to a
temporary directory and named relative to it, so two runs give the same command
lines.

``diff`` prints how many command lines differ between two such files (one missing
from either file counts), then the first few of them. It exits 1 if any differ.

Files under ``bench/`` are only read. pytest does not collect this file.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import shlex
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SEEDS = (1, 2, 3)
SHOWN = 10  # differing command lines that ``diff`` prints


def command_lines() -> dict[str, list[str]]:
    """Every distinct command line of the workloads at SEEDS, keyed by its shell form.

    Writes the fit logs under the working directory.
    """
    sys.path.insert(0, str(ROOT / "bench"))
    import workloads

    lines: dict[str, list[str]] = {}
    for name in workloads.WORKLOADS:
        for seed in SEEDS:
            folder = Path(f"{name}-{seed}")
            folder.mkdir()
            workload = workloads.build(name, seed, folder)
            for argv in [*workload.warmup, *(op.argv for op in workload.ops)]:
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
