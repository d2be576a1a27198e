"""Set-up probe: import skillcheck and run the warm-up commands, then exit.

run.py times this script from process start to exit in a fresh
interpreter. Usage: python3 setup_probe.py SRC_DIR WARMUP_JSON, where
WARMUP_JSON is a list of argv lists. Exits 1 if a warm-up command fails.
"""

import contextlib
import io
import json
import sys

sys.path.insert(0, sys.argv[1])

import skillcheck  # noqa: E402,F401
import skillcheck.cli  # noqa: E402

for argv in json.loads(sys.argv[2]):
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        rc = skillcheck.cli.main(argv)
    if rc != 0:
        sys.exit(1)
