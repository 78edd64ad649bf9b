"""Set-up probe, run in a fresh interpreter: import, then one request.

Usage: python3 perfbench/setup_child.py WORKLOAD SEED

Prints one JSON line whose ``done`` is the monotonic clock (shared by all
processes) when the first request completed; for ``verify_cli`` it is the
end of ``import cartanbundle.cli``. The parent subtracts its own start time.
"""

import json
import sys
import time

workload, seed = sys.argv[1], int(sys.argv[2])

if workload == "verify_cli":
    import cartanbundle.cli  # noqa: F401

    done = time.perf_counter()
    ok = True
else:
    import cartanbundle as cb

    import gen
    import workloads as wl

    def call(layer, op, fn, *args):
        return fn(*args)

    if workload == "bundle_desk":
        r = gen.wrap_bundle_request(cb, gen.bundle_requests(seed, workload, wl.BUNDLE_N, wl.BUNDLE_P, 1)[0])
        out = wl.bundle_request(call, r)
        done = time.perf_counter()
        ok = all(wl.bundle_errors(r, out)[k] <= b for k, b in wl.BUNDLE_BOUNDS.items())
    else:
        r = gen.wrap_screw_request(cb, gen.screw_requests(seed, wl.SCREW_N, 1)[0])
        out = wl.screw_request(call, r)
        done = time.perf_counter()
        ok = wl.screw_errors(r, out)["roundtrip"] <= wl.SCREW_BOUNDS["roundtrip"]

print(json.dumps({"done": done, "ok": ok}))
