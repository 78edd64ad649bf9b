"""Run a verify that must fail, and check which rows fail and how.

    python tools/failing_verify.py [--raised] ROW[,ROW...] -- VERIFY-ARGS...

runs ``python -m cartanbundle.cli verify VERIFY-ARGS`` and exits non-zero
unless: the command exits 2; its report is strict JSON (no NaN or Infinity
token); the rows that fail are exactly the comma-separated ROWs; and, with
``--raised``, each failing row reads ``samples`` 0 and ``max_error`` null
and carries an ``error`` object whose ``code`` is a string, as a row that
raised is reported.
"""

from __future__ import annotations

import json
import subprocess
import sys


def check(rows: list, raised: bool, verify_args: list) -> str | None:
    """The first way the run differs from what is expected, or None if it does not."""
    run = subprocess.run(
        [sys.executable, "-m", "cartanbundle.cli", "verify", *verify_args],
        capture_output=True, text=True,
    )
    if run.returncode != 2:
        return f"expected exit code 2, got {run.returncode}: {run.stderr}"

    def reject(token):
        raise ValueError(f"non-standard JSON token {token}")

    try:
        report = json.loads(run.stdout, parse_constant=reject)
    except ValueError as e:
        return str(e)
    failing = [r for r in report["properties"] if not r["pass"]]
    failed = sorted(r["name"] for r in failing)
    if failed != sorted(rows):
        return f"failed rows {failed}, expected {sorted(rows)}"
    reported = [(r["name"], r["samples"], r["max_error"]) for r in failing]
    if raised and any(row[1:] != (0, None) for row in reported):
        return f"failed rows {reported}, expected samples 0 and max_error null"
    uncoded = [r["name"] for r in failing
               if type(r.get("error")) is not dict or type(r["error"].get("code")) is not str]
    if raised and uncoded:
        return f"failed rows {uncoded} carry no error object with a string code"
    return None


def main(argv: list) -> int:
    if "--" not in argv:
        sys.exit(__doc__)
    split = argv.index("--")
    options, verify_args = argv[:split], argv[split + 1:]
    raised = "--raised" in options
    options = [o for o in options if o != "--raised"]
    if len(options) != 1:
        sys.exit(__doc__)
    error = check(options[0].split(","), raised, verify_args)
    if error:
        print(error, file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
