"""tools/round_sweep.py: the rounding of the by-construction maps stays within ``grassmann._ROUND``."""

import importlib.util
import json
from pathlib import Path

import numpy as np

from cartanbundle import grassmann

_spec = importlib.util.spec_from_file_location(
    "round_sweep", Path(__file__).resolve().parents[1] / "tools" / "round_sweep.py")
round_sweep = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(round_sweep)

MAPS = {"cartan_embed0", "rho_inv", "tau", "dp_exp", "dp_exp_full"}


def test_each_map_needs_less_than_the_rounding_allowance():
    worst = round_sweep.sweep(300, 0)
    assert set(worst) == MAPS
    allowance = grassmann._ROUND / np.finfo(float).eps
    for name, (need, kind, n, p) in worst.items():
        assert need < allowance, (name, kind, n, p)


def test_prints_the_worst_of_each_map_as_json(capsys):
    assert round_sweep.main(["--cases", "3", "--seed", "1"]) == 0
    assert set(json.loads(capsys.readouterr().out)) == MAPS
