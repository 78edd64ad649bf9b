"""Call counting and spans at the benchmark's boundary, and the layer sweep.

Spans cover the calls the benchmark makes into a layer's public functions;
calls the library makes internally are not seen. Spans stay in memory and
are written out when the run ends.
"""

from __future__ import annotations

import statistics
from collections import Counter
from time import perf_counter

import numpy as np

import cartanbundle as cb
from cartanbundle import serialize, verify

import gen
import workloads as wl

LAYERS = ("matcore", "liegroup", "grassmann", "bundle", "projective", "verify", "cli", "config")


def error_code(exc: BaseException) -> str:
    return getattr(exc, "code", None) or type(exc).__name__


def direct(layer, op, fn, *args):
    """The boundary of an untraced run: the call, with nothing around it."""
    return fn(*args)


class Calls:
    """Counts calls into each layer, and failures by (layer, error code).

    With ``spans=True`` it also records one span per call:
    (name, start, end, parent index, request id).
    """

    def __init__(self, spans: bool = False):
        self.calls = Counter()
        self.failed = Counter()
        self.spans = [] if spans else None
        self.request_id = None
        self._stack = []

    def __call__(self, layer, op, fn, *args):
        self.calls[layer] += 1
        if self.spans is None:
            try:
                return fn(*args)
            except Exception as exc:
                self.failed[(layer, error_code(exc))] += 1
                raise
        parent = self._stack[-1] if self._stack else None
        idx = len(self.spans)
        self.spans.append(None)
        self._stack.append(idx)
        t0 = perf_counter()
        try:
            return fn(*args)
        except Exception as exc:
            if layer != "request":  # counted once, where it was raised
                self.failed[(layer, error_code(exc))] += 1
            raise
        finally:
            t1 = perf_counter()
            self._stack.pop()
            self.spans[idx] = (f"{layer}.{op}", t0, t1, parent, self.request_id)

    def merge(self, other: "Calls"):
        self.calls.update(other.calls)
        self.failed.update(other.failed)


def span_shares(spans, request_name, ops):
    """Share of the time of ``request_name`` spans spent in each direct child op."""
    total = 0.0
    per_op = Counter()
    by_index = {i: s for i, s in enumerate(spans)}
    for name, t0, t1, parent, _ in spans:
        if name == request_name:
            total += t1 - t0
        elif parent is not None and by_index[parent][0] == request_name:
            per_op[name.split(".", 1)[1]] += t1 - t0
    return {op: (per_op[op] / total if total else 0.0) for op in ops}


# ------------------------------------------------------------ derived inputs


def bundle_from_screw(raw_screw, p=2):
    """A raw bundle request built from a screw request's arrays."""
    omega, v = raw_screw["omega"], raw_screw["v"]
    n = omega.shape[0]
    src_span = omega[:, :p] + np.eye(n, p)  # the shift keeps edge-scale spans well conditioned
    dst_span = omega[:, p:2 * p] + np.eye(n, p, -p)
    sq, sr = np.linalg.qr(src_span)
    dq, dr = np.linalg.qr(dst_span)
    src_frame, dst_frame = sq * np.sign(np.diag(sr)), dq * np.sign(np.diag(dr))
    eye = np.eye(n)
    cayley = np.linalg.solve(eye - omega, eye + omega)  # in SO(n) for skew omega
    B = omega[p:, :p].copy()
    B *= 0.5 * gen.DP_BOUND / np.linalg.norm(B, 2)
    return {
        "src_span": src_span,
        "src_frame": src_frame,
        "src_fiber": src_frame @ v[:p],
        "dst_frame": dst_frame,
        "dst_fiber": dst_frame @ v[p:2 * p],
        "g_R": cayley,
        "g_X": v.copy(),
        "B": B,
        "v": v[:p].copy(),
    }


def screw_from_bundle(raw_bundle):
    """The d_p element of a bundle request, as a raw screw request."""
    n, p = raw_bundle["src_frame"].shape
    xi = cb.DpElement(cb.DpGenerator(p=p, q=n - p, B=raw_bundle["B"]), raw_bundle["v"]).screw()
    return {"omega": xi.omega, "v": xi.v, "edge": False}


def sweep_ops(br, sr):
    """(layer, op, fn, args) for one derived input pair; results prepared untimed."""
    raw = br["raw"]
    sig, src, xi, g = br["sig"], br["src"], br["xi"], br["g"]
    n, p = raw["src_frame"].shape
    omega, v = sr["xi"].omega, sr["xi"].v
    screw_g = cb.se_exp(sr["xi"])
    rot = cb.so_exp(omega)
    cr = cb.cartan_embed0(src.plane)
    t = cb.tau(g, sig)
    U = np.zeros(n)
    U[1:] = raw["g_X"][1:]
    U /= np.linalg.norm(U)
    theta = float(np.linalg.norm(raw["B"], 2))
    return [
        ("matcore", "skew_canonical_form", cb.skew_canonical_form, (omega,)),
        ("matcore", "canonical_rotation_form", cb.canonical_rotation_form, (g.R,)),
        ("matcore", "orthonormalize", cb.orthonormalize, (raw["src_span"],)),
        ("matcore", "complete_to_special_orthogonal", cb.complete_to_special_orthogonal,
         (raw["src_frame"],)),
        ("matcore", "eigenspace_of_symmetric_involution", cb.eigenspace_of_symmetric_involution,
         (np.eye(n) - 2.0 * raw["src_frame"] @ raw["src_frame"].T, -1)),
        ("liegroup", "se_exp", cb.se_exp, (sr["xi"],)),
        ("liegroup", "se_log", cb.se_log, (screw_g,)),
        ("liegroup", "so_exp", cb.so_exp, (omega,)),
        ("liegroup", "so_log", cb.so_log, (rot,)),
        ("liegroup", "y_omega", cb.y_omega, (omega, v)),
        ("liegroup", "y_omega_solve", cb.y_omega_solve, (omega, screw_g.X)),
        ("grassmann", "cartan_embed0", cb.cartan_embed0, (src.plane,)),
        ("grassmann", "rho0", cb.rho0, (cr,)),
        ("grassmann", "dp_exp", cb.dp_exp, (xi.gen,)),
        ("grassmann", "dp_log0", cb.dp_log0, (cb.dp_exp(xi.gen),)),
        ("grassmann", "CartanRotation.certify", cb.CartanRotation.certify, (cr.mat, sig)),
        ("bundle", "CartanMotion.certify", cb.CartanMotion.certify, (t.motion, sig)),
        ("bundle", "twisted_act", cb.twisted_act, (g, t.motion, sig)),
        ("projective", "line_bundle_exp", cb.line_bundle_exp, (theta, U, float(raw["v"][0]))),
    ]


def floor_ops(br, sr, schur):
    """The bare LAPACK call under an op, on the same matrix: (metric, fn, args)."""
    raw = br["raw"]
    n = raw["src_frame"].shape[0]
    ops = [
        ("matcore.svd_floor_us", np.linalg.svd, (raw["src_span"],)),
        ("grassmann.eigh_floor_us", np.linalg.eigh,
         (np.eye(n) - 2.0 * raw["src_frame"] @ raw["src_frame"].T,)),
    ]
    if schur is not None:
        ops.append(("matcore.schur_floor_us", lambda m: schur(m, output="real"), (sr["xi"].omega,)))
        ops.append(("matcore.schur_rotation_floor_us", lambda m: schur(m, output="real"), (br["g"].R,)))
    return ops


# --------------------------------------------------------------- the sweep


def _timed(times, key, calls, layer, op, fn, *args):
    """Time one call; a failure is counted by ``calls`` and leaves no time."""
    t0 = perf_counter()
    try:
        calls(layer, op, fn, *args)
    except Exception:  # counted in calls.failed; the sweep goes on
        return
    times.setdefault(key, []).append(perf_counter() - t0)


def layer_sweep(calls, bundle_reqs, screw_reqs, budget_s, min_passes=3):
    """Time each lower layer's public functions on derived inputs.

    Each pass calls every op once per input, then runs the bundle request
    chain on each input; passes repeat until the budget is spent. An op's
    time is the lowest of its per-pass medians, so a pass that fell into a
    contended phase does not set it. ``calls`` must record spans.
    """
    try:
        from scipy.linalg import schur
    except ImportError:  # the library may drop SciPy; the floor is then absent
        schur = None
    pairs = list(zip(bundle_reqs, screw_reqs))
    ops = [sweep_ops(br, sr) for br, sr in pairs]
    floors = [floor_ops(br, sr, schur) for br, sr in pairs]
    per_pass = {}
    deadline = perf_counter() + budget_s
    passes = 0
    while passes < min_passes or perf_counter() < deadline:
        times = {}
        for row in ops:
            for layer, op, fn, args in row:
                _timed(times, f"{layer}.{op}", calls, layer, op, fn, *args)
        for row in floors:
            for name, fn, args in row:
                t0 = perf_counter()
                fn(*args)
                times.setdefault(name, []).append(perf_counter() - t0)
        start = len(calls.spans)
        for i, br in enumerate(bundle_reqs):
            calls.request_id = f"sweep-{passes}-{i}"
            _timed(times, "request.bundle_request", calls, "request", "bundle_request",
                   wl.bundle_request, calls, br)
        calls.request_id = None
        for name, t0, t1, _, _ in calls.spans[start:]:
            if name.startswith("bundle."):
                times.setdefault(name, []).append(t1 - t0)
        _timed(times, "projective.moebius_grid", calls, "projective", "moebius_grid",
               cb.moebius_grid, 128, 9, 2.0)
        # a few microseconds a call: timed as a batch, counted but not spanned
        t0 = perf_counter()
        for _ in range(200):
            cb.default_tolerances()
        times["config.default_tolerances"] = [(perf_counter() - t0) / 200]
        calls.calls["config"] += 200
        for name, ts in times.items():
            per_pass.setdefault(name, []).append(statistics.median(ts))
        passes += 1
    return {name: min(ms) for name, ms in per_pass.items()}, passes


def verify_sweep(calls, cfg):
    """Run each verify property as run_verification does, timing it alone."""
    from cartanbundle import sampling

    results = []
    for stream, entry in enumerate(verify.PROPERTIES):
        name, fn = entry[0], entry[1]
        rng = sampling.make_rng(cfg.seed, stream)
        t0 = perf_counter()
        try:
            samples, err, passed = calls("verify", name, fn, cfg, rng)
        except cb.GeometryError:
            samples, err, passed = 0, float("inf"), False
        results.append((name, perf_counter() - t0, int(samples), float(err), bool(passed)))
    return results


def dumps_ms(calls, results, reps=20):
    report = verify.VerifyReport(
        properties=tuple(
            verify.PropertyResult(name=name, samples=s, max_error=e, passed=ok)
            for name, _, s, e, ok in results
        ),
        passed=all(r[4] for r in results),
        wall_time_s=sum(r[1] for r in results),
    )
    best = float("inf")
    for _ in range(reps):
        t0 = perf_counter()
        calls("cli", "serialize.dumps", serialize.dumps, report.to_json())
        best = min(best, perf_counter() - t0)
    return best * 1e3
