"""The line bundle over the circle of lines in R^2 is a Moebius band.

Sweeping the rotation angle theta from 0 to 2 pi moves the carried line
around the circle of lines only once (the line turns at half speed), so a
fiber vector returns to the same line with its orientation reversed. The
grid emitted here samples (theta, lambda) and records the motion, the line
angle, and the in-line fiber vector; the seam check makes the orientation
reversal explicit.
"""

import csv
import sys

from cartanbundle import moebius_grid
from cartanbundle.projective import MOEBIUS_COLUMNS
from cartanbundle.verify import moebius_seam_check


def main():
    records = moebius_grid(num_theta=128, num_lambda=9, lambda_max=2.0)
    print(f"sampled {len(records)} points on the band")

    pairs, max_dev, flips_ok, resolution = moebius_seam_check()
    print(f"seam pairs matched: {pairs}")
    print(f"max line deviation across the seam: {max_dev:.4f}"
          f" (grid resolution {resolution:.4f})")
    print("fiber orientation reverses across the seam:", flips_ok)

    out = sys.argv[1] if len(sys.argv) > 1 else "moebius_band.csv"
    with open(out, "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=MOEBIUS_COLUMNS)
        writer.writeheader()
        writer.writerows(records)
    print("wrote", out)


if __name__ == "__main__":
    main()
