"""tools/failing_verify.py: the one checker of the CI steps whose verify must fail."""

import importlib.util
import os
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


def test_rejects_a_verify_that_passes():
    error = failing_verify.check(PLANE_ROWS, False, ["--n", "2", "--p", "1", "--samples", "5", "--seed", "5"])
    assert error.startswith("expected exit code 2, got 0")


def test_usage_without_the_separator():
    with pytest.raises(SystemExit) as info:
        failing_verify.main([",".join(PLANE_ROWS), *PLANE_ARGS])
    assert info.value.code == failing_verify.__doc__
