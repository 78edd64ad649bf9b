"""The two library workloads: one request, and the check of its outputs.

A request is a chain of calls into ``cartanbundle``'s public functions. Each
call goes through ``call(layer, op, fn, *args)`` (see ``trace.Calls``), which
counts it and, in a traced run, records a span. Checks run outside the timed
region, in plain NumPy on the raw inputs, against the bounds ``verify`` uses
for the same identities.
"""

from __future__ import annotations

import numpy as np

import cartanbundle as cb

BUNDLE_N, BUNDLE_P = 4, 2
SCREW_N = 32

# identity -> bound; each is the bound of the matching verify property
BUNDLE_BOUNDS = {
    "rho_roundtrip": 1e-9,   # bundle.rho_bijectivity
    "transport": 1e-9,       # bundle.transporter
    "tau_involution": 1e-10,  # bundle.tau_properties
    "dp_roundtrip": 1e-8,    # bundle.dp_full_routes
}
SCREW_BOUNDS = {"roundtrip": 1e-8}  # liegroup.log_exp_roundtrip

BUNDLE_OPS = ("rho_inv", "rho", "find_transporter", "bundle_act", "tau", "dp_exp_full", "dp_log_full")


def bundle_request(call, r):
    """rho_inv -> rho, find_transporter -> bundle_act, tau, dp_exp_full -> dp_log_full."""
    sig, src = r["sig"], r["src"]
    s = call("bundle", "rho_inv", cb.rho_inv, src)
    back = call("bundle", "rho", cb.rho, s)
    a = call("bundle", "find_transporter", cb.find_transporter, src, r["dst"])
    moved = call("bundle", "bundle_act", cb.bundle_act, a, src, sig)
    t = call("bundle", "tau", cb.tau, r["g"], sig)
    e = call("bundle", "dp_exp_full", cb.dp_exp_full, r["xi"])
    xi2 = call("bundle", "dp_log_full", cb.dp_log_full, e)
    return back, moved, t, xi2


def _proj(frame):
    return frame @ frame.T


def bundle_errors(r, out) -> dict:
    back, moved, t, xi2 = out
    raw = r["raw"]
    p = raw["src_frame"].shape[1]
    J = np.ones(raw["src_frame"].shape[0])
    J[:p] = -1.0
    R, X = t.motion.R, t.motion.X
    # sigma(t) = (J R J, J X) against t^{-1} = (R^T, -R^T X)
    tau_err = float(np.sqrt(
        np.linalg.norm(J[:, None] * R * J[None, :] - R.T) ** 2
        + np.linalg.norm(J * X + R.T @ X) ** 2
    ))
    return {
        "rho_roundtrip": max(
            float(np.linalg.norm(back.plane.projector - _proj(raw["src_frame"]))),
            float(np.linalg.norm(back.fiber - raw["src_fiber"])),
        ),
        "transport": max(
            float(np.linalg.norm(moved.plane.projector - _proj(raw["dst_frame"]))),
            float(np.linalg.norm(moved.fiber - raw["dst_fiber"])),
        ),
        "tau_involution": tau_err,
        "dp_roundtrip": max(
            float(np.linalg.norm(xi2.gen.B - raw["B"])),
            float(np.linalg.norm(xi2.v - raw["v"])),
        ),
    }


def screw_request(call, r):
    """se_exp -> se_log."""
    g = call("liegroup", "se_exp", cb.se_exp, r["xi"])
    return call("liegroup", "se_log", cb.se_log, g)


def screw_errors(r, out) -> dict:
    raw = r["raw"]
    return {"roundtrip": max(
        float(np.linalg.norm(out.omega - raw["omega"])),
        float(np.linalg.norm(out.v - raw["v"])),
    )}
