"""Time each verify row: its first (cold) CPU time and its best over repeated runs, on stdout.

    python tools/row_times.py [--n 8] [--p 3] [--samples 200] [--seed 5] [--repeat 5]

runs each row of ``verify.PROPERTIES`` ``--repeat`` times, draw and check,
on the stream ``run_verification`` gives it, and prints one line per row in
table order: its name, its best CPU time in ms and the CPU time in ms of its
first run; then the totals of both. The first run of a row pays for what
the process meets for the first time (an import, a first call), which the
best hides. It only reads and times: nothing passes or fails on a time.
"""

from __future__ import annotations

import argparse
import sys
import time

from cartanbundle import sampling
from cartanbundle.verify import PROPERTIES, VerifyConfig


def row_times(cfg: VerifyConfig, repeat: int) -> list:
    """(name, best CPU ms, first CPU ms) for each row of the table, in its order."""
    times = []
    for stream, (name, row) in enumerate(PROPERTIES):
        runs = []
        for _ in range(repeat):
            rng = sampling.make_rng(cfg.seed, stream)
            start = time.process_time()
            row(cfg, rng)
            runs.append(time.process_time() - start)
        times.append((name, 1e3 * min(runs), 1e3 * runs[0]))
    return times


def main(argv: list) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    for flag, default in (("--n", 8), ("--p", 3), ("--samples", 200), ("--seed", 5), ("--repeat", 5)):
        parser.add_argument(flag, type=int, default=default)
    args = parser.parse_args(argv)
    times = row_times(VerifyConfig(n=args.n, p=args.p, samples=args.samples, seed=args.seed), args.repeat)
    for name, best, first in times:
        print(f"{name:45} {best:9.2f} {first:9.2f}")
    print(f"{'total':45} {sum(t[1] for t in times):9.2f} {sum(t[2] for t in times):9.2f}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
