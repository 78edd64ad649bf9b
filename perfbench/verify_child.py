"""Run the ``verify`` CLI command with the reference kernel read every 100 ms.

Usage: python3 perfbench/verify_child.py SEED

Equivalent to ``python -m cartanbundle.cli verify --n 8 --p 3 --samples 200
--seed SEED``: the report goes to stdout and the exit code is the CLI's. A
SIGALRM timer interrupts the command every 100 ms of wall time to time the
kernel of ``stats.py``. The timestamps and kernel times go to stderr as one
last line, ``perfbench-ticks {...}``, so that the parent can scale each slice
of the command by the machine's speed during it.
"""

import time

t_start = time.perf_counter()

import json  # noqa: E402
import signal  # noqa: E402
import sys  # noqa: E402

import stats  # noqa: E402  (imports NumPy before the timer can fire)

TICK_S = 0.1
ticks = []  # (start, end) of each kernel run


def _tick(signum, frame):
    t0 = time.perf_counter()
    stats.kernel_s()
    ticks.append((t0, time.perf_counter()))


signal.signal(signal.SIGALRM, _tick)
signal.setitimer(signal.ITIMER_REAL, TICK_S, TICK_S)
try:
    import cartanbundle.cli as cli

    t_imported = time.perf_counter()
    code = cli.main(["verify", "--n", "8", "--p", "3", "--samples", "200", "--seed", sys.argv[1]])
    t_done = time.perf_counter()
finally:
    signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
    sys.stdout.flush()
record = {"start": t_start, "imported": t_imported, "done": t_done, "ticks": ticks}
sys.stderr.write("perfbench-ticks " + json.dumps(record) + "\n")
sys.exit(code)
