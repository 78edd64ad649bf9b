"""tools/row_times.py: one line per verify row, then the total."""

import importlib.util
import math
from pathlib import Path

_spec = importlib.util.spec_from_file_location(
    "row_times", Path(__file__).resolve().parents[1] / "tools" / "row_times.py")
row_times = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(row_times)


def test_prints_each_row_once_with_its_time(capsys):
    assert row_times.main(["--n", "4", "--p", "2", "--samples", "5", "--repeat", "1"]) == 0
    *rows, total = [line.split() for line in capsys.readouterr().out.splitlines()]
    names = [row[0] for row in rows]
    assert len(names) == len(set(names)) == 27
    assert all(len(row) == 2 for row in rows)
    times = [float(row[1]) for row in rows]
    assert all(math.isfinite(ms) and ms >= 0.0 for ms in times)
    # each printed time is rounded to 0.01 ms
    assert total[0] == "total" and abs(float(total[1]) - sum(times)) <= 0.005 * (len(times) + 1)
