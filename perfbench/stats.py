"""Order statistics and the reference kernel for the benchmark's timings.

The machine this was tuned on alternates between a quiet phase and a
contended one, in which NumPy-heavy code runs 1.6 to 2 times slower and
plain Python about 1.3 times slower. A phase lasts from a second to tens of
seconds, so whole runs can fall into the slow phase and a plain median then
mostly measures the neighbours. The benchmark therefore runs a fixed
reference kernel (a NumPy/Python mix like the library's own) before and
after every window of requests, and scales each latency in the window by
``REF_KERNEL_S / kernel time``. A timing is then reported at the speed at
which the kernel takes ``REF_KERNEL_S``: the kernel's time in the quiet
phase of the tuning machine (2-CPU Intel Xeon at 2.0 GHz, Python 3.11,
NumPy 2.4 with OpenBLAS). On a quiet machine of that kind the scaled and
the raw figures agree; elsewhere they are in units of that kernel.
"""

from __future__ import annotations

import math
import statistics
from time import perf_counter

import numpy as np

REF_KERNEL_S = 2.2e-3
KERNEL_REPS = 40
WINDOW = 16     # requests between two runs of the kernel
STEADY_RATIO = 1.15  # kernel times around a window may differ by this factor
TAIL_BEYOND = 10
# p99 and above move with the neighbours' bursts shorter than a window, which
# the kernel cannot see; p90 is the highest percentile steady on that machine.
LADDER = (90.0, 75.0, 50.0)


def percentile(sorted_values, q):
    """Nearest-rank percentile of already sorted values."""
    k = max(0, math.ceil(q / 100.0 * len(sorted_values)) - 1)
    return sorted_values[k], len(sorted_values) - k - 1


def tail(values):
    """(value, percentile, samples beyond it) for the highest percentile in
    ``LADDER`` with at least ten samples beyond it; the maximum, as
    percentile 100, when no percentile has."""
    s = sorted(values)
    for q in LADDER:
        v, beyond = percentile(s, q)
        if beyond >= TAIL_BEYOND:
            return v, q, beyond
    return s[-1], 100.0, 0


_rng = np.random.default_rng(0)
_M = _rng.standard_normal((4, 4))
_S = _M + _M.T


def kernel_s(reps=KERNEL_REPS):
    """Seconds for one run of the reference kernel: small LAPACK calls, array
    temporaries and a little Python arithmetic, like a call into the library."""
    t0 = perf_counter()
    for _ in range(reps):
        q, _ = np.linalg.qr(_M)
        np.linalg.eigh(_S)
        np.linalg.svd(_M, compute_uv=False)
        np.linalg.det(q)
        x = float(np.linalg.norm(q @ q.T - np.eye(4)))
        acc = 0.0
        for i in range(40):
            acc += math.sin(0.1 * i) * x
    return perf_counter() - t0


def scaled_windows(deadline, serve, min_windows=1):
    """Serve windows of ``WINDOW`` requests until ``deadline``, timing the kernel around each.

    ``serve(w)`` serves one request of window ``w`` and returns its latency in
    seconds, or None if it failed. Returns one (window, latencies, kernel
    before, kernel after) per window.
    """
    windows = []
    before = kernel_s()
    w = 0
    while w < min_windows or perf_counter() < deadline:
        lat = [dt for dt in (serve(w) for _ in range(WINDOW)) if dt is not None]
        after = kernel_s()
        windows.append((w, lat, before, after))
        before = after
        w += 1
    return windows


def steady(windows):
    """The windows in which the kernel read the same speed before and after.

    In the others the machine changed phase mid-window, so no single scale
    applies; keeping them would put phase changes into the tail. If no
    window is steady, all are kept.
    """
    kept = [w for w in windows if max(w[2], w[3]) <= STEADY_RATIO * min(w[2], w[3])]
    return kept or windows


def scaled(windows):
    """Latencies of the steady windows, each scaled by REF_KERNEL_S / mean kernel time."""
    return [dt * 2.0 * REF_KERNEL_S / (b + a) for _, lat, b, a in steady(windows) for dt in lat]


def scaled_span(t0, t1, ticks):
    """Seconds of [t0, t1] outside the kernel runs ``ticks`` (start, end), each
    slice scaled by REF_KERNEL_S over the kernel times on either side of it."""

    def scale(*ks):
        ks = [k for k in ks if k is not None]
        return REF_KERNEL_S * len(ks) / sum(ks)

    total = 0.0
    start, before, after = t0, None, None
    for a, b in ticks:
        if b <= t0:
            before = b - a
            continue
        if a >= t1:
            after = b - a
            break
        total += (a - start) * scale(before, b - a)
        start, before = b, b - a
    if before is None and after is None:
        return t1 - start  # no kernel reading at all: unscaled
    return total + (t1 - start) * scale(before, after)
