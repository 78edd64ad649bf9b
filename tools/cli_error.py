"""Run a CLI command that must fail on its input, and check how it fails.

    python tools/cli_error.py CODE -- CLI-ARGS...

runs ``python -m cartanbundle.cli CLI-ARGS`` with this script's stdin, and
exits non-zero unless the command exits 1 and its stderr is the JSON error
object whose ``error`` is CODE.
"""

from __future__ import annotations

import json
import subprocess
import sys


def check(code: str, cli_args: list, stdin: str | None = None) -> str | None:
    """The first way the run differs from what is expected, or None if it does not.

    ``stdin`` is the command's input; None passes this process's stdin through.
    """
    run = subprocess.run(
        [sys.executable, "-m", "cartanbundle.cli", *cli_args],
        input=stdin, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True,
    )
    if run.returncode != 1:
        return f"expected exit code 1, got {run.returncode}: {run.stderr}"
    try:
        error = json.loads(run.stderr)["error"]
    except (ValueError, KeyError, TypeError):
        return f"stderr is not a JSON error object: {run.stderr!r}"
    if error != code:
        return f"error {error}, expected {code}"
    return None


def main(argv: list) -> int:
    if len(argv) < 2 or argv[1] != "--":
        sys.exit(__doc__)
    error = check(argv[0], argv[2:])
    if error:
        print(error, file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
