"""tools/cli_error.py: the one checker of the CI steps whose CLI command must fail on its input."""

import importlib.util
import os
import subprocess
import sys
from pathlib import Path

import pytest

import cartanbundle

TOOL = str(Path(__file__).resolve().parents[1] / "tools" / "cli_error.py")
_spec = importlib.util.spec_from_file_location("cli_error", TOOL)
cli_error = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(cli_error)

IDENTITY = '{"R": {"rows": 4, "cols": 4, "data": [1, 0, 0, 0, 0, 1, 0, 0, 0, 0, 1, 0, 0, 0, 0, 1]}, "X": [0, 0, 0, 0]}'
TWO = '{"R": {"rows": 4, "cols": 4, "data": [2, 0, 0, 0, 0, 2, 0, 0, 0, 0, 2, 0, 0, 0, 0, 2]}, "X": [0, 0, 0, 0]}'


@pytest.fixture(autouse=True)
def this_checkout(monkeypatch):
    # the command the checker starts imports this checkout of the package
    src = str(Path(cartanbundle.__file__).resolve().parents[1])
    monkeypatch.setenv("PYTHONPATH", os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))


def test_accepts_the_error_the_command_reports():
    assert cli_error.main(["bad_arguments", "--", "moebius", "--tol.eig", "1e-7"]) == 0
    assert cli_error.check("ill_conditioned_spectrum", ["act", "--p", "2"], f'{{"a": {TWO}, "g": {IDENTITY}}}') is None


def test_rejects_another_error(capsys):
    assert cli_error.main(["invalid_input", "--", "moebius", "--tol.eig", "1e-7"]) == 1
    assert "error bad_arguments, expected invalid_input" in capsys.readouterr().err


def test_rejects_a_command_that_succeeds():
    error = cli_error.check("bad_arguments", ["act", "--p", "2"], f'{{"a": {IDENTITY}, "g": {IDENTITY}}}')
    assert error.startswith("expected exit code 1, got 0")


def test_passes_its_stdin_through():
    # run as CI runs it, with the command's input piped into the checker
    run = subprocess.run([sys.executable, TOOL, "ill_conditioned_spectrum", "--", "act", "--p", "2"],
                         input=f'{{"a": {TWO}, "g": {IDENTITY}}}', capture_output=True, text=True)
    assert (run.returncode, run.stderr) == (0, "")


def test_usage_without_the_separator():
    with pytest.raises(SystemExit) as info:
        cli_error.main(["bad_arguments", "moebius", "--tol.eig", "1e-7"])
    assert info.value.code == cli_error.__doc__
