"""Smoke check of the benchmark: every workload, untraced and traced, at tiny size.

Usage, from the root of a checkout:  python3 perfbench/smoke.py

Prints the end-to-end metrics of each workload with their units. Asserts
that each run exits 0, that its last stdout line carries every metric named
in BENCHMARK.json with its unit, and that nothing failed. Exits 1 if any
run does not.
"""

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SECONDS = "0.5"
# Reported only while SciPy can be imported; the benchmark runs without it.
NEEDS_SCIPY = {"matcore.schur_floor_us", "matcore.skew_canonical_form.overhead_frac",
               "matcore.canonical_rotation_form.overhead_frac"}


def _have_scipy():
    try:
        import scipy.linalg  # noqa: F401
    except ImportError:
        return False
    return True


def check(workload, traced, spec):
    argv = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
            "--seed", "7", "--seconds", SECONDS, "--trace", str(traced)]
    proc = subprocess.run(argv, capture_output=True, text=True, timeout=600, cwd=ROOT)
    problems = []
    if proc.returncode != 0:
        return [f"exit code {proc.returncode}: {proc.stderr.strip()[-400:]}"]
    lines = proc.stdout.strip().splitlines()
    if not traced:  # the end-to-end metrics, one per line, with their units
        print("\n".join(f"     {line}" for line in lines[:-1]))
    result = json.loads(lines[-1])
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        problems.append(f"result keys {sorted(result)}")
    if not result["correct"] or result["failed"] != 0 or result["attempted"] < 1:
        problems.append(f"fail_frac is not 0: {result['failed']}/{result['attempted']}")
    expected = {m["name"]: m["unit"] for m in spec["per_layer" if traced else "end_to_end"]}
    got = result["metrics"]
    if not traced or _have_scipy():
        optional = set()
    else:
        optional = NEEDS_SCIPY
    for name, unit in expected.items():
        if name not in got and name not in optional:
            problems.append(f"missing metric {name}")
        elif name in got and got[name]["unit"] != unit:
            problems.append(f"{name}: unit {got[name]['unit']}, expected {unit}")
    problems += [f"unexpected metric {name}" for name in set(got) - set(expected)]
    return problems


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    bad = False
    for workload in (w["name"] for w in spec["workloads"]):
        for traced in (0, 1):
            problems = check(workload, traced, spec)
            print(f"{'FAIL' if problems else 'ok  '} {workload} trace={traced}")
            for p in problems:
                print(f"     {p}")
            bad = bad or bool(problems)
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
