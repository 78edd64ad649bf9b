"""tools/failing_verify.py: the one checker of the CI steps whose verify must fail."""

import importlib.util
import json
import os
import subprocess
from pathlib import Path

import pytest

import cartanbundle

_spec = importlib.util.spec_from_file_location(
    "failing_verify", Path(__file__).resolve().parents[1] / "tools" / "failing_verify.py")
failing_verify = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(failing_verify)

PLANE_ROWS = ["grassmann.cartan_roundtrips", "grassmann.rho0_equivariance", "projective.half_angle_line"]
PLANE_ARGS = ["--n", "4", "--p", "2", "--samples", "20", "--seed", "5", "--tol.plane", "1e-30"]


@pytest.fixture(autouse=True)
def this_checkout(monkeypatch):
    # the verify the checker starts imports this checkout of the package
    src = str(Path(cartanbundle.__file__).resolve().parents[1])
    monkeypatch.setenv("PYTHONPATH", os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))


def test_accepts_the_rows_that_fail():
    assert failing_verify.main([",".join(reversed(PLANE_ROWS)), "--", *PLANE_ARGS]) == 0


def test_rejects_a_row_list_that_differs(capsys):
    assert failing_verify.check(PLANE_ROWS[:2], False, PLANE_ARGS).startswith("failed rows")
    # those rows fail by a residual over the bound, not by a raise
    assert failing_verify.main(["--raised", ",".join(PLANE_ROWS), "--", *PLANE_ARGS]) == 1
    assert "samples 0 and max_error null" in capsys.readouterr().err


FIBER_ROWS = ["bundle.action_law", "bundle.dp_full_routes", "bundle.q_invariance", "bundle.rho_bijectivity",
              "bundle.rho_equivariance", "bundle.tau_properties", "bundle.transporter"]
FIBER_ARGS = ["--n", "4", "--p", "2", "--samples", "5", "--seed", "5", "--tol.fiber", "1e-20"]


def _rewritten(run, edit):
    """``subprocess.run`` with ``edit`` applied to each row of the report it captures."""
    def rewrite(*args, **kwargs):
        done = run(*args, **kwargs)
        report = json.loads(done.stdout)
        for row in report["properties"]:
            edit(row)
        return subprocess.CompletedProcess(done.args, done.returncode, json.dumps(report), done.stderr)
    return rewrite


def _drop_error(row):
    row.pop("error", None)


def _number_code(row):
    if "error" in row:
        row["error"]["code"] = 7


@pytest.mark.parametrize("edit", [_drop_error, _number_code], ids=["dropped", "not a string"])
def test_raised_rows_must_carry_a_string_error_code(monkeypatch, capsys, edit):
    """With --raised, a failing row whose error object is gone, or whose code is not a string, is rejected."""
    assert failing_verify.check(FIBER_ROWS, True, FIBER_ARGS) is None
    monkeypatch.setattr(failing_verify.subprocess, "run", _rewritten(subprocess.run, edit))
    assert failing_verify.check(FIBER_ROWS, False, FIBER_ARGS) is None
    assert failing_verify.main(["--raised", ",".join(FIBER_ROWS), "--", *FIBER_ARGS]) == 1
    assert "carry no error object with a string code" in capsys.readouterr().err


def test_rejects_a_verify_that_passes():
    error = failing_verify.check(PLANE_ROWS, False, ["--n", "2", "--p", "1", "--samples", "5", "--seed", "5"])
    assert error.startswith("expected exit code 2, got 0")


def test_usage_without_the_separator():
    with pytest.raises(SystemExit) as info:
        failing_verify.main([",".join(PLANE_ROWS), *PLANE_ARGS])
    assert info.value.code == failing_verify.__doc__
