"""Replay every record of fixtures/cli_golden.json through cli.main.

Standard library only, so it runs without pytest and without site-packages:

    PYTHONPATH=src python -S tests/replay_golden.py

Each record's key is its argv with the fixtures directory written as
<fixtures>; the exit code, stdout and stderr must match byte for byte.
Exits 1 and names the records that differ.
"""

import contextlib
import io
import json
import sys
from pathlib import Path

from linremoval import cli

FIXTURES = Path(__file__).parent / "fixtures"
PLACEHOLDER = "<fixtures>"


def replay(key: str) -> dict:
    here = str(FIXTURES)
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        # the empty key is the run with no arguments at all
        code = cli.main(key.replace(PLACEHOLDER, here).split(" ") if key else [])
    return {
        "exit": code,
        "stdout": out.getvalue().replace(here, PLACEHOLDER),
        "stderr": err.getvalue().replace(here, PLACEHOLDER),
    }


def main() -> int:
    golden = json.loads((FIXTURES / "cli_golden.json").read_text(encoding="utf-8"))
    mismatched = [key for key, record in golden.items() if replay(key) != record]
    for key in mismatched:
        print(f"mismatch: {key}")
    print(f"{len(golden) - len(mismatched)} of {len(golden)} golden records match")
    return 1 if mismatched else 0


if __name__ == "__main__":
    sys.exit(main())
