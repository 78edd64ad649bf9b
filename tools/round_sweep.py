"""Measure the rounding residuals of the five maps that land in the Cartan model by construction.

    python tools/round_sweep.py [--cases N] [--seed S]

draws N random cases, each at n from 2 to 32 and p from 1 to n - 1, with
|B|_2 up to 3 pi and translations up to 1e6, and runs ``cartan_embed0``,
``rho_inv``, ``tau``, ``dp_exp`` and ``dp_exp_full`` on orthonormal inputs.
``grassmann._sure`` bounds each residual of an output's public check by an
input part, measured from the input, plus n ``_ROUND`` times a multiplier.
For each residual this prints the worst of (residual - input part) /
(multiplier n eps), the rounding allowance the residual needed, per map, as
JSON; ``_ROUND`` allows 16.

With rot_in = 4 sqrt(n) e (e the orthonormality residual of the input frame
or rotation; 0 for dp_exp and dp_exp_full), the bounds are:
- orthogonality, determinant, symmetry, involution: rot_in + n _ROUND;
- fiber: fib_in + n _ROUND m, where m is |X| for tau (X its input
  translation) and 1 + |Y| for the others, and fib_in is rot_in |X| for
  tau, the measured |P Y - Y| of the input fiber for rho_inv, 0 for
  dp_exp_full;
- sigma: rot_in (1 + |Y|) + 2 fib_in + n _ROUND (1 + |Y| + 2 m).
"""

from __future__ import annotations

import argparse
import json
import math
import sys

import numpy as np

from cartanbundle import (DpElement, DpGenerator, Motion, Signature, bundle_point, cartan_embed0, dp_exp,
                          dp_exp_full, plane_from_frame, rho_inv, tau)
from cartanbundle.sampling import make_rng, sample_rotation


def residuals(R: np.ndarray, X: np.ndarray, j: np.ndarray) -> dict:
    """The residuals of the public check of (R, X), for J = diag(j)."""
    n, S = len(j), R * j
    return {
        "orth": np.linalg.norm(R.T @ R - np.eye(n)),
        "det": abs(np.linalg.det(R) - 1.0),
        "symmetric": np.linalg.norm(S - S.T),
        "involution": np.linalg.norm(S @ S - np.eye(n)),
        "sigma": math.hypot(np.linalg.norm(S @ S - np.eye(n)), np.linalg.norm(X + S @ X)),
        "fiber": 0.5 * np.linalg.norm(j * X + R.T @ X),
    }


def sweep(cases: int, seed: int) -> dict:
    """{map: [allowance, residual name, n, p]}: the worst rounding allowance per map, in units of n eps."""
    rng, eps, worst = make_rng(seed, 0), np.finfo(float).eps, {}
    for _ in range(cases):
        n = int(rng.integers(2, 33))
        p = int(rng.integers(1, n))
        sig, scale = Signature(p, n - p), 10.0 ** rng.uniform(0, 6)
        B = rng.standard_normal((n - p, p))
        B *= rng.uniform(0, 3 * math.pi) / np.linalg.norm(B, 2)
        gen, plane = DpGenerator(p, n - p, B), plane_from_frame(sample_rotation(rng, n)[:, :p])
        fiber = plane.projector @ (scale * rng.standard_normal(n))
        A, X = sample_rotation(rng, n), scale * rng.standard_normal(n)
        e_plane = 4 * math.sqrt(n) * np.linalg.norm(plane.frame.T @ plane.frame - np.eye(p))
        e_tau = 4 * math.sqrt(n) * np.linalg.norm(A.T @ A - np.eye(n))
        # map: (output, rot_in, fib_in, m or None for 1 + |Y|)
        outs = {
            "cartan_embed0": (cartan_embed0(plane), e_plane, 0.0, None),
            "rho_inv": (rho_inv(bundle_point(plane, fiber)), e_plane,
                        np.linalg.norm(plane.projector @ fiber - fiber), None),
            "tau": (tau(Motion(A, X), sig), e_tau, e_tau * np.linalg.norm(X), np.linalg.norm(X)),
            "dp_exp": (dp_exp(gen), 0.0, 0.0, None),
            "dp_exp_full": (dp_exp_full(DpElement(gen, scale * rng.standard_normal(p))), 0.0, 0.0, None),
        }
        for name, (out, rot_in, fib_in, m) in outs.items():
            motion = hasattr(out, "motion")
            R, Y = (out.motion.R, out.motion.X) if motion else (out.mat, np.zeros(n))
            y = 1.0 + np.linalg.norm(Y)
            m = y if m is None else m
            bounds = {"orth": (rot_in, 1.0), "det": (rot_in, 1.0), "symmetric": (rot_in, 1.0),
                      "involution": (rot_in, 1.0)}
            if motion:
                bounds["fiber"] = (fib_in, m)
                bounds["sigma"] = (rot_in * y + 2 * fib_in, y + 2 * m)
            found = residuals(R, Y, sig._signs)
            for kind, (inp, coef) in bounds.items():
                need = (found[kind] - inp) / (coef * n * eps) if coef else 0.0
                if need > worst.get(name, [-math.inf])[0]:
                    worst[name] = [need, kind, n, p]
    return worst


def main(argv: list) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--cases", type=int, default=3000)
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args(argv)
    print(json.dumps(sweep(args.cases, args.seed), indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
