"""Workload inputs, generated as raw arrays from the benchmark's own Philox stream.

Nothing here calls ``cartanbundle.sampling``: a change to the library's
samplers or to ``tau`` cannot change a workload. ``raw_*`` functions return
plain NumPy arrays; ``wrap_*`` functions turn them into library types through
public constructors, before any timing starts.
"""

from __future__ import annotations

import math

import numpy as np

# One Philox stream per workload, so workloads never share inputs.
STREAMS = {"bundle_desk": 1, "screw_wide": 2, "verify_cli": 3}

DP_BOUND = math.pi - 0.1      # spectral-norm cap on the d_p block B
SCREW_BOUND = math.pi - 1e-3  # cap on the largest canonical angle of omega
TAYLOR_SWITCH = 1e-4          # angle below which the half-angle factor uses its series
EDGE_EVERY = 8                # every 8th screw request is scaled across the Taylor switch


def make_rng(seed: int, workload: str) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(key=[seed & (2**64 - 1), STREAMS[workload]]))


def _rotation(rng, n):
    """Haar rotation: sign-fixed QR of a Gaussian matrix, last column flipped into SO(n)."""
    Q, R = np.linalg.qr(rng.standard_normal((n, n)))
    Q = Q * np.sign(np.diag(R))
    if np.linalg.det(Q) < 0:
        Q[:, -1] = -Q[:, -1]
    return Q


def _frame(rng, n, p):
    """(spanning set, orthonormal frame of its span)."""
    span = rng.standard_normal((n, p))
    Q, R = np.linalg.qr(span)
    return span, Q * np.sign(np.diag(R))


def raw_bundle_request(rng, n, p):
    """src and dst bundle points, a motion g, and a d_p element with |B|_2 <= pi - 0.1."""
    q = n - p
    src_span, src_frame = _frame(rng, n, p)
    dst_span, dst_frame = _frame(rng, n, p)
    B = rng.standard_normal((q, p))
    B *= DP_BOUND * rng.uniform(0.05, 1.0) / np.linalg.norm(B, 2)
    return {
        "src_span": src_span,
        "src_frame": src_frame,
        "src_fiber": src_frame @ rng.standard_normal(p),
        "dst_frame": dst_frame,
        "dst_fiber": dst_frame @ rng.standard_normal(p),
        "g_R": _rotation(rng, n),
        "g_X": rng.standard_normal(n),
        "B": B,
        "v": rng.standard_normal(p),
    }


def raw_screw_request(rng, n, edge):
    """A screw (omega, v). Generic: largest angle <= pi - 1e-3. Edge: angles straddle 1e-4."""
    A = rng.standard_normal((n, n))
    omega = 0.5 * (A - A.T)
    top = np.linalg.norm(omega, 2)
    if edge:
        # The largest angle lands in [1.5e-4, 3e-4]; the smaller ones fall below 1e-4.
        omega *= 3.0 * TAYLOR_SWITCH * rng.uniform(0.5, 1.0) / top
    else:
        omega *= SCREW_BOUND * rng.uniform(0.05, 1.0) / top
    return {"omega": omega, "v": rng.standard_normal(n), "edge": edge}


def bundle_requests(seed, workload, n, p, count):
    rng = make_rng(seed, workload)
    return [raw_bundle_request(rng, n, p) for _ in range(count)]


def screw_requests(seed, n, count):
    rng = make_rng(seed, "screw_wide")
    return [raw_screw_request(rng, n, i % EDGE_EVERY == EDGE_EVERY - 1) for i in range(count)]


def wrap_bundle_request(cb, raw):
    """Library objects for one bundle request, built with public constructors."""
    n, p = raw["src_frame"].shape
    return {
        "sig": cb.Signature(p, n - p),
        "src": cb.bundle_point(cb.plane_from_frame(raw["src_frame"]), raw["src_fiber"]),
        "dst": cb.bundle_point(cb.plane_from_frame(raw["dst_frame"]), raw["dst_fiber"]),
        "g": cb.Motion(raw["g_R"], raw["g_X"]),
        "xi": cb.DpElement(cb.DpGenerator(p=p, q=n - p, B=raw["B"]), raw["v"]),
        "raw": raw,
    }


def wrap_screw_request(cb, raw):
    return {"xi": cb.Screw(raw["omega"], raw["v"]), "raw": raw}
