"""cartan-bundle benchmark.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload {bundle_desk,screw_wide,verify_cli} \\
        --seed N --seconds S --trace {0,1}

``--trace 0`` measures the end-to-end metrics; ``--trace 1`` is a separate
run that records spans and reports the per-layer metrics. The last line of
stdout is one JSON object with the keys ``correct``, ``attempted``,
``failed`` and ``metrics``. Spans and the run record are written to
``.perfbench_out/`` in the checkout. See ``perfbench/README.md`` for what
each metric means.
"""

from __future__ import annotations

import argparse
import gc
import itertools
import json
import os
import resource
import statistics
import subprocess
import sys
from time import perf_counter

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, ".perfbench_out")

if not os.path.isfile(os.path.join(SRC, "cartanbundle", "__init__.py")):
    sys.exit("perfbench: no src/cartanbundle here; run from the root of a checkout")
sys.path.insert(0, SRC)

import cartanbundle as cb  # noqa: E402
from cartanbundle import verify  # noqa: E402

import gen  # noqa: E402
import layers  # noqa: E402
import record  # noqa: E402
import stats  # noqa: E402
import workloads as wl  # noqa: E402

WORKLOADS = ("bundle_desk", "screw_wide", "verify_cli")
INPUTS = 2048         # pregenerated requests per library workload, served in a cycle
WARMUP = 16           # requests run (and checked) before latencies are kept
SETUPS = 5            # fresh interpreters timed per run for setup_s
SWEEP_INPUTS = 8      # derived inputs per op in the layer sweep
VERIFY_N, VERIFY_P, VERIFY_SAMPLES = 8, 3, 200
SWEEP_VERIFY_SAMPLES = 20  # per property, in the traced sweep of the library workloads
IMPORT_PROBES = 3

END_TO_END_UNITS = {
    "setup_s": "s",
    "req_per_s": "1/s",
    "req_p50_ms": "ms",
    "req_tail_ms": "ms",
    "verify_s": "s",
    "peak_rss_mb": "MB",
}


def _metric(value, unit):
    return {"value": float(value), "unit": unit}


def _peak_rss_mb(who):
    return resource.getrusage(who).ru_maxrss / 1024.0  # ru_maxrss is in KiB on Linux


def _write_out(name, obj):
    os.makedirs(OUT_DIR, exist_ok=True)
    with open(os.path.join(OUT_DIR, name), "w", encoding="utf-8") as fh:
        json.dump(obj, fh)


# ------------------------------------------------------------ library workloads


def _shape(workload):
    """(n, p, share of edge-case inputs) of a workload's own requests."""
    if workload == "bundle_desk":
        return wl.BUNDLE_N, wl.BUNDLE_P, 0.0
    if workload == "screw_wide":
        return wl.SCREW_N, None, 1.0 / gen.EDGE_EVERY
    return VERIFY_N, VERIFY_P, 0.0


def _library_inputs(workload, seed):
    if workload == "bundle_desk":
        raws = gen.bundle_requests(seed, workload, wl.BUNDLE_N, wl.BUNDLE_P, INPUTS)
        return [gen.wrap_bundle_request(cb, r) for r in raws], wl.bundle_request, wl.bundle_errors, \
            wl.BUNDLE_BOUNDS
    raws = gen.screw_requests(seed, wl.SCREW_N, INPUTS)
    return [gen.wrap_screw_request(cb, r) for r in raws], wl.screw_request, wl.screw_errors, \
        wl.SCREW_BOUNDS


class Tally:
    """Attempts, failures by code, and the largest error seen per identity."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.codes = {}
        self.max_err = {}

    def fail(self, code):
        self.failed += 1
        self.codes[code] = self.codes.get(code, 0) + 1

    def serve(self, call, request, check, bounds, r, rid=None):
        """One request, timed; its outputs checked after the clock stops.

        With a request id, ``call`` must be a span-recording ``layers.Calls``
        and the request gets a span of its own. Returns the latency in
        seconds, or None if the request failed.
        """
        self.attempted += 1
        t0 = perf_counter()
        try:
            if rid is None:
                out = request(call, r)
            else:
                call.request_id = rid
                out = call("request", request.__name__, request, call, r)
        except Exception as exc:  # any raise is a failed request, counted by its code
            self.fail(layers.error_code(exc))
            return None
        dt = perf_counter() - t0
        missed = False
        for name, err in check(r, out).items():
            self.max_err[name] = max(self.max_err.get(name, 0.0), err)
            if not err <= bounds[name]:
                self.fail(f"bound.{name}")
                missed = True
        return None if missed else dt


def _latency_metrics(windows):
    lats = stats.scaled(windows)
    mean = statistics.fmean(lats)
    tail_v, tail_q, beyond = stats.tail(lats)
    raw = [dt for _, lat, _, _ in windows for dt in lat]
    info = {"requests": len(raw), "kept": len(lats), "tail_percentile": tail_q,
            "tail_beyond": beyond, "raw_median_ms": statistics.median(raw) * 1e3,
            "scale_median": statistics.median(2.0 * stats.REF_KERNEL_S / (b + a)
                                              for _, _, b, a in windows)}
    return {
        "req_per_s": 1.0 / mean,
        "req_p50_ms": statistics.median(lats) * 1e3,
        "req_tail_ms": tail_v * 1e3,
        "verify_s": INPUTS * mean,
    }, info


def run_library(args):
    workload = args.workload
    rec = record.run_record(workload, args.seed, *_shape(workload))
    reqs, request, check, bounds = _library_inputs(workload, args.seed)
    tally = Tally()
    served = itertools.count()

    def serve(_window):
        return tally.serve(layers.direct, request, check, bounds, reqs[next(served) % INPUTS])

    for _ in range(WARMUP):
        serve(None)
    # The pregenerated inputs are the benchmark's, not the program's: keep them
    # out of the collector's full passes, so GC pauses track the program alone.
    gc.collect()
    gc.freeze()
    # Set-ups are spread through the run, so that they sample its phases.
    setups, windows = [], []
    for k in range(SETUPS):
        setups.append(record.time_setup(workload, args.seed + k))
        windows += stats.scaled_windows(perf_counter() + args.seconds / SETUPS, serve)
    values, info = _latency_metrics(windows)
    values["setup_s"] = statistics.median(t for t, _ in setups)
    values["peak_rss_mb"] = _peak_rss_mb(resource.RUSAGE_SELF)
    detail = {"record": rec, "latency": info, "setups": setups, "max_err": tally.max_err,
              "failures": tally.codes, "fail_frac": tally.failed / tally.attempted}
    correct = tally.failed == 0 and all(ok for _, ok in setups)
    return correct, tally.attempted, tally.failed, values, detail


# ------------------------------------------------------------ verify_cli


def _verify_command(seed):
    """One ``verify`` CLI run in a fresh interpreter, read against the kernel.

    Returns (scaled wall s, scaled in-process s, failed properties, raw wall s).
    The in-process part runs from the end of the import to the end of ``main``.
    """
    argv = [sys.executable, os.path.join(HERE, "verify_child.py"), str(seed)]
    t0 = perf_counter()
    proc = subprocess.run(argv, env=record.child_env(), capture_output=True, text=True,
                          timeout=record.CHILD_TIMEOUT_S, cwd=ROOT)
    t1 = perf_counter()
    props = len(verify.PROPERTIES)
    try:
        report = json.loads(proc.stdout)
        failed = sum(not prop["pass"] for prop in report["properties"])
        last = proc.stderr.strip().splitlines()[-1]
        ticks = json.loads(last[len("perfbench-ticks "):])
    except (ValueError, KeyError, TypeError, IndexError):
        return float("nan"), float("nan"), props, t1 - t0
    if proc.returncode != 0:
        failed = max(failed, 1)
    wall = stats.scaled_span(t0, t1, ticks["ticks"])
    inproc = stats.scaled_span(ticks["imported"], ticks["done"], ticks["ticks"])
    return wall, inproc, failed, t1 - t0


def run_verify_cli(args):
    rec = record.run_record("verify_cli", args.seed, *_shape("verify_cli"))
    props = len(verify.PROPERTIES)
    setups, runs = [], []
    attempted = failed = 0
    deadline = perf_counter() + args.seconds
    k = 0
    while k < 1 or perf_counter() < deadline:
        if k < SETUPS:  # one set-up before each of the first commands
            setups.append(record.time_setup("verify_cli", args.seed + k))
        wall, inproc, bad, raw = _verify_command(args.seed * 1000 + k)
        attempted += props
        failed += bad
        if not bad:
            runs.append((wall, inproc, raw))
        k += 1
    while len(setups) < SETUPS:
        setups.append(record.time_setup("verify_cli", args.seed + len(setups)))
    if not runs:
        runs = [(float("nan"),) * 3]
    walls = [r[0] for r in runs]
    inprocs = [r[1] for r in runs]
    tail_v, tail_q, beyond = stats.tail(inprocs)
    values = {
        "setup_s": statistics.median(t for t, _ in setups),
        "req_per_s": 1.0 / statistics.fmean(walls),
        "req_p50_ms": statistics.median(inprocs) * 1e3,
        "req_tail_ms": tail_v * 1e3,
        "verify_s": statistics.median(walls),
        "peak_rss_mb": _peak_rss_mb(resource.RUSAGE_CHILDREN),
    }
    detail = {"record": rec, "commands": [list(r) for r in runs], "setups": setups,
              "tail_percentile": tail_q, "tail_beyond": beyond, "fail_frac": failed / attempted}
    correct = failed == 0 and all(ok for _, ok in setups)
    return correct, attempted, failed, values, detail


# ------------------------------------------------------------ traced run


MOVES = (
    ("", ".max_err", "none: errors may not grow"),
    ("", ".max_error", "none: errors may not grow"),
    ("matcore.", "_floor_us", "req_p50_ms on screw_wide (less on bundle_desk via dp_exp_full)"),
    ("matcore.", "overhead_frac", "req_p50_ms on bundle_desk more than on screw_wide"),
    ("matcore.", "", "req_p50_ms on screw_wide (less on bundle_desk via dp_exp_full)"),
    ("liegroup.", "", "req_per_s on screw_wide; on bundle_desk via dp_exp_full/dp_log_full"),
    ("grassmann.", "", "req_p50_ms on bundle_desk; no change on screw_wide"),
    ("bundle.", "", "req_p50_ms and req_tail_ms on bundle_desk"),
    ("projective.", "", "verify_s on verify_cli"),
    ("verify.", "", "verify_s on verify_cli"),
    ("cli.", "", "setup_s on every workload, and verify_s on verify_cli"),
    ("serialize.", "", "setup_s on every workload, and verify_s on verify_cli"),
    ("config.", "", "req_p50_ms on bundle_desk"),
    ("calls", "", "fail_frac (failed/attempted) on every workload"),
    ("fail_frac", "", "fail_frac (failed/attempted) on every workload"),
    ("trace.", "", "none: cost of the tracing itself"),
)


def moves(name):
    for prefix, suffix, target in MOVES:
        if name.startswith(prefix) and name.endswith(suffix):
            return target
    return "none"


def _derived_inputs(workload, seed, reqs):
    """SWEEP_INPUTS (bundle request, screw request) pairs derived from the workload's inputs."""
    if workload == "bundle_desk":
        bundle = reqs[:SWEEP_INPUTS]
    elif workload == "screw_wide":
        bundle = [gen.wrap_bundle_request(cb, layers.bundle_from_screw(r["raw"]))
                  for r in reqs[:SWEEP_INPUTS]]
    else:
        bundle = [gen.wrap_bundle_request(cb, r)
                  for r in gen.bundle_requests(seed, workload, VERIFY_N, VERIFY_P, SWEEP_INPUTS)]
    if workload == "screw_wide":
        screws = reqs[:SWEEP_INPUTS]
    else:
        screws = [gen.wrap_screw_request(cb, layers.screw_from_bundle(b["raw"])) for b in bundle]
    return bundle, screws


def _traced_requests(workload, seed, seconds, plain, traced, tally):
    """Alternate untraced and traced windows of requests: (untraced, traced) windows."""
    reqs, request, check, bounds = _library_inputs(workload, seed)
    served = itertools.count()

    def serve(window):
        i = next(served)
        if window % 2:
            return tally.serve(traced, request, check, bounds, reqs[i % INPUTS], rid=i)
        return tally.serve(plain, request, check, bounds, reqs[i % INPUTS])

    windows = stats.scaled_windows(perf_counter() + seconds, serve, min_windows=2)
    traced.request_id = None
    return reqs, [w for w in windows if not w[0] % 2], [w for w in windows if w[0] % 2]


def _check_derived(calls, tally, bundle, screws):
    """Run the bundle chain and the screw round trip once on each derived input, checked."""
    for request, check, bounds, reqs in ((wl.bundle_request, wl.bundle_errors, wl.BUNDLE_BOUNDS, bundle),
                                         (wl.screw_request, wl.screw_errors, wl.SCREW_BOUNDS, screws)):
        for r in reqs:
            tally.serve(calls, request, check, bounds, r)


def run_traced(args):
    workload, seed = args.workload, args.seed
    plain = layers.Calls()
    calls = layers.Calls(spans=True)
    tally = Tally()
    if workload == "verify_cli":
        wall0, _, bad0, _ = plain("cli", "verify_command", _verify_command, seed * 1000)
        wall1, _, bad1, _ = calls("cli", "verify_command", _verify_command, seed * 1000 + 1)
        tally.attempted += 2 * len(verify.PROPERTIES)
        for _ in range(bad0 + bad1):
            tally.fail("verify_command")
        p50_plain, p50_traced = wall0 * 1e3, wall1 * 1e3
        reqs = None
    else:
        reqs, win_plain, win_traced = _traced_requests(
            workload, seed, 0.4 * args.seconds, plain, calls, tally)
        p50_plain = statistics.median(stats.scaled(win_plain)) * 1e3
        p50_traced = statistics.median(stats.scaled(win_traced)) * 1e3
    rec = record.run_record(workload, seed, *_shape(workload))

    bundle, screws = _derived_inputs(workload, seed, reqs)
    best, passes = layers.layer_sweep(calls, bundle, screws, 0.3 * args.seconds)
    shares = layers.span_shares(calls.spans, "request.bundle_request", wl.BUNDLE_OPS)
    _check_derived(calls, tally, bundle, screws)

    samples = VERIFY_SAMPLES if workload == "verify_cli" else SWEEP_VERIFY_SAMPLES
    vcfg = verify.VerifyConfig(n=VERIFY_N, p=VERIFY_P, samples=samples, seed=seed)
    vresults = layers.verify_sweep(calls, vcfg)
    tally.attempted += len(vresults)
    for name, _, _, _, ok in vresults:
        if not ok:
            tally.fail(f"verify.{name}")
    imports = [calls("cli", "import", record.import_breakdown) for _ in range(IMPORT_PROBES)]
    dumps_ms = layers.dumps_ms(calls, vresults)
    calls.merge(plain)

    m = {}

    def us(name):
        m[name] = _metric(best.get(name[: -len("_us")], float("nan")) * 1e6, "us")

    for op in ("skew_canonical_form", "canonical_rotation_form", "orthonormalize",
               "complete_to_special_orthogonal", "eigenspace_of_symmetric_involution"):
        us(f"matcore.{op}_us")
    m["matcore.svd_floor_us"] = _metric(best["matcore.svd_floor_us"] * 1e6, "us")
    if "matcore.schur_floor_us" in best:  # absent when SciPy cannot be imported
        m["matcore.schur_floor_us"] = _metric(best["matcore.schur_floor_us"] * 1e6, "us")
        for op, floor in (("skew_canonical_form", "matcore.schur_floor_us"),
                          ("canonical_rotation_form", "matcore.schur_rotation_floor_us")):
            frac = 1.0 - best[floor] / best[f"matcore.{op}"]
            m[f"matcore.{op}.overhead_frac"] = _metric(frac, "ratio")
    for op in ("se_exp", "se_log", "so_exp", "so_log", "y_omega", "y_omega_solve"):
        us(f"liegroup.{op}_us")
    m["liegroup.roundtrip.max_err"] = _metric(tally.max_err.get("roundtrip", float("nan")), "abs")
    for op in ("cartan_embed0", "rho0", "dp_exp", "dp_log0", "CartanRotation.certify"):
        us(f"grassmann.{op}_us")
    m["grassmann.eigh_floor_us"] = _metric(best["grassmann.eigh_floor_us"] * 1e6, "us")
    m["grassmann.rho0.overhead_frac"] = _metric(
        1.0 - best["grassmann.eigh_floor_us"] / best["grassmann.rho0"], "ratio")
    for op in wl.BUNDLE_OPS + ("CartanMotion.certify", "twisted_act"):
        us(f"bundle.{op}_us")
    for op in wl.BUNDLE_OPS:
        m[f"bundle.{op}.share"] = _metric(shares[op], "ratio")
    for name in ("rho_roundtrip", "transport", "dp_roundtrip"):
        m[f"bundle.{name}.max_err"] = _metric(tally.max_err.get(name, float("nan")), "abs")
    us("projective.line_bundle_exp_us")
    m["projective.moebius_grid_ms"] = _metric(best["projective.moebius_grid"] * 1e3, "ms")
    for name, secs, _, err, _ in vresults:
        m[f"verify.{name}_s"] = _metric(secs, "s")
        m[f"verify.{name}.max_error"] = _metric(err, "abs")
    m["cli.import_s"] = _metric(statistics.median(d["cartanbundle"] for d in imports), "s")
    m["cli.import.scipy_s"] = _metric(statistics.median(d["scipy"] for d in imports), "s")
    m["cli.import.numpy_s"] = _metric(statistics.median(d["numpy"] for d in imports), "s")
    m["serialize.report_dumps_ms"] = _metric(dumps_ms, "ms")
    m["config.default_tolerances_us"] = _metric(best["config.default_tolerances"] * 1e6, "us")
    for layer in layers.LAYERS:
        m[f"calls.{layer}"] = _metric(calls.calls[layer], "count")
        m[f"calls_failed.{layer}"] = _metric(
            sum(c for (lay, _), c in calls.failed.items() if lay == layer), "count")
    m["fail_frac"] = _metric(tally.failed / tally.attempted, "ratio")
    m["trace.req_p50_ms"] = _metric(p50_traced, "ms")
    m["trace.overhead_ms"] = _metric(p50_traced - p50_plain, "ms")

    _write_out(f"trace-{workload}-{seed}.json", {
        "record": rec, "sweep_passes": passes,
        "span_fields": ["name", "start", "end", "parent", "request_id"],
        "spans": calls.spans,
    })
    detail = {"record": rec, "failures": tally.codes,
              "calls_failed": {f"{lay}.{code}": c for (lay, code), c in calls.failed.items()},
              "moves": {name: moves(name) for name in m}}
    return tally.failed == 0, tally.attempted, tally.failed, m, detail


def main(argv=None):
    parser = argparse.ArgumentParser(prog="perfbench/run.py")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    if args.trace:
        correct, attempted, failed, metrics, detail = run_traced(args)
    else:
        runner = run_verify_cli if args.workload == "verify_cli" else run_library
        correct, attempted, failed, values, detail = runner(args)
        metrics = {name: _metric(values[name], unit) for name, unit in END_TO_END_UNITS.items()}
    _write_out(f"record-{args.workload}-{args.seed}-trace{args.trace}.json", detail)
    for name, m in metrics.items():
        note = f"  -> {detail['moves'][name]}" if args.trace else ""
        print(f"{name} {m['value']:.6g} {m['unit']}{note}")
    print(f"fail_frac {failed / attempted:.6g} ratio ({failed}/{attempted})")
    print(json.dumps({"correct": bool(correct), "attempted": int(attempted),
                      "failed": int(failed), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
