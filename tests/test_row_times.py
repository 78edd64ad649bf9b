"""tools/row_times.py: one line per verify row, then the totals."""

import importlib.util
import math
from pathlib import Path

_spec = importlib.util.spec_from_file_location(
    "row_times", Path(__file__).resolve().parents[1] / "tools" / "row_times.py")
row_times = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(row_times)


def test_prints_each_row_once_with_its_time(capsys):
    assert row_times.main(["--n", "4", "--p", "2", "--samples", "5", "--repeat", "2"]) == 0
    *rows, total = [line.split() for line in capsys.readouterr().out.splitlines()]
    names = [row[0] for row in rows]
    assert len(names) == len(set(names)) == 27
    assert all(len(row) == 3 for row in rows)
    best, first = ([float(row[k]) for row in rows] for k in (1, 2))
    assert all(math.isfinite(ms) and ms >= 0.0 for ms in best + first)
    # each time is rounded to 0.01 ms, and the best of two runs is at most the first
    assert all(b <= f for b, f in zip(best, first))
    assert total[0] == "total" and len(total) == 3
    for column, ms in ((best, total[1]), (first, total[2])):
        assert abs(float(ms) - sum(column)) <= 0.005 * (len(column) + 1)


def test_the_first_time_is_the_first_run_and_the_best_the_least(monkeypatch):
    ticks = iter([0.0, 0.003, 0.003, 0.004, 0.004, 0.006] * 27)  # runs of 3, 1 and 2 ms for each row
    monkeypatch.setattr(row_times.time, "process_time", lambda: next(ticks))
    times = row_times.row_times(row_times.VerifyConfig(n=4, p=2, samples=1, seed=5), 3)
    assert len(times) == 27
    assert all(math.isclose(best, 1.0) and math.isclose(first, 3.0) for _, best, first in times)
