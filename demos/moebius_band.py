"""The line bundle over the circle of lines in R^2 is a Moebius band.

Sweeping the rotation angle theta from 0 to 2 pi moves the carried line
around the circle of lines only once (the line turns at half speed), so a
fiber vector returns to the same line with its orientation reversed. The
grid emitted here samples (theta, lambda) and records the motion, the line
angle, and the in-line fiber vector. The twist is exact: at theta = 2 pi m
the geodesic closes, and the frame it carries comes back as (-1)^m e_1.
"""

import csv
import math
import sys

import numpy as np

from cartanbundle import half_angle_line, line_bundle_exp, moebius_grid
from cartanbundle.projective import MOEBIUS_COLUMNS


def main():
    records = moebius_grid(num_theta=128, num_lambda=9, lambda_max=2.0)
    print(f"sampled {len(records)} points on the band")

    U = np.array([0.0, 1.0])
    for m, name in ((1, "2 pi"), (2, "4 pi")):
        theta = 2.0 * math.pi * m
        frame = half_angle_line(theta, U).frame[:, 0]
        closure = np.linalg.norm(line_bundle_exp(theta, U, 2.0).homogeneous() - np.eye(3))
        sign = (-1) ** m
        print(f"theta = {name}: carried frame ({frame[0]:+.1f}, {frame[1]:+.1e}),"
              f" {sign:+d} e_1 to {np.linalg.norm(frame - [sign, 0]):.1e};"
              f" |exp - (I, 0)| = {closure:.1e} at lambda = 2")

    out = sys.argv[1] if len(sys.argv) > 1 else "moebius_band.csv"
    with open(out, "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=MOEBIUS_COLUMNS)
        writer.writeheader()
        writer.writerows(records)
    print("wrote", out)


if __name__ == "__main__":
    main()
