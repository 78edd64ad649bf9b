"""Time each verify row: its best CPU time over repeated runs, on stdout.

    python tools/row_times.py [--n 8] [--p 3] [--samples 200] [--seed 5] [--repeat 5]

runs each row of ``verify.PROPERTIES`` ``--repeat`` times, draw and check,
on the stream ``run_verification`` gives it, and prints one line per row in
table order: its name and its best CPU time in ms; then the total of those
times. It only reads and times: nothing passes or fails on a time.
"""

from __future__ import annotations

import argparse
import sys
import time

from cartanbundle import sampling
from cartanbundle.verify import PROPERTIES, VerifyConfig


def row_times(cfg: VerifyConfig, repeat: int) -> list:
    """(name, best CPU ms) for each row of the table, in its order."""
    times = []
    for stream, (name, row) in enumerate(PROPERTIES):
        best = float("inf")
        for _ in range(repeat):
            rng = sampling.make_rng(cfg.seed, stream)
            start = time.process_time()
            row(cfg, rng)
            best = min(best, time.process_time() - start)
        times.append((name, 1e3 * best))
    return times


def main(argv: list) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    for flag, default in (("--n", 8), ("--p", 3), ("--samples", 200), ("--seed", 5), ("--repeat", 5)):
        parser.add_argument(flag, type=int, default=default)
    args = parser.parse_args(argv)
    times = row_times(VerifyConfig(n=args.n, p=args.p, samples=args.samples, seed=args.seed), args.repeat)
    for name, ms in times:
        print(f"{name:45} {ms:9.2f}")
    print(f"{'total':45} {sum(ms for _, ms in times):9.2f}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
