"""Run record, fresh-interpreter set-up timing, and the import-time breakdown."""

from __future__ import annotations

import json
import os
import platform
import subprocess
import sys
from time import perf_counter

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
CHILD_TIMEOUT_S = 120


def child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def _git_sha():
    """HEAD of the checkout, read from .git without running git; None outside a repository."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        path = os.path.join(git, ref)
        if os.path.exists(path):
            with open(path, encoding="utf-8") as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs"), encoding="utf-8") as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        return None
    return None


def _blas():
    """BLAS vendor from NumPy's build config, and its thread count if it can be read."""
    import numpy as np

    vendor = None
    try:
        vendor = np.show_config(mode="dicts")["Build Dependencies"]["blas"]["name"]
    except (TypeError, KeyError, AttributeError):
        pass
    threads = None
    try:
        import ctypes

        with open("/proc/self/maps", encoding="utf-8") as fh:
            libs = {line.split()[-1] for line in fh if "openblas" in line.lower() and ".so" in line}
        for lib in sorted(libs):
            handle = ctypes.CDLL(lib)
            for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                        "openblas_get_num_threads"):
                fn = getattr(handle, sym, None)
                if fn is not None:
                    fn.restype = ctypes.c_int
                    threads = int(fn())
                    break
            if threads is not None:
                break
    except OSError:
        pass
    return vendor, threads


def run_record(workload, seed, n, p, edge_frac):
    import numpy as np

    try:
        import scipy

        scipy_version = scipy.__version__
    except ImportError:
        scipy_version = None
    vendor, threads = _blas()
    return {
        "workload": workload,
        "seed": seed,
        "n": n,
        "p": p,
        "edge_frac": edge_frac,
        "git_sha": _git_sha(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy_version,
        "blas": vendor,
        "blas_threads": threads,
        "nproc": os.cpu_count(),
        "loadavg": list(os.getloadavg()),
    }


def time_setup(workload, seed):
    """(seconds from starting a fresh interpreter to its first completed request,
    whether that request's outputs met their bounds)."""
    t0 = perf_counter()
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "setup_child.py"), workload, str(seed)],
        env=child_env(), capture_output=True, text=True, timeout=CHILD_TIMEOUT_S, cwd=ROOT,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"set-up child failed: {proc.stderr.strip()[-400:]}")
    out = json.loads(proc.stdout.strip().splitlines()[-1])
    return out["done"] - t0, bool(out["ok"])


def import_breakdown():
    """(cartanbundle.cli, scipy, numpy) import seconds from ``python -X importtime``."""
    proc = subprocess.run(
        [sys.executable, "-X", "importtime", "-c", "import cartanbundle.cli"],
        env=child_env(), capture_output=True, text=True, timeout=CHILD_TIMEOUT_S, cwd=ROOT,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"import of cartanbundle.cli failed: {proc.stderr.strip()[-400:]}")
    return parse_importtime(proc.stderr)


def parse_importtime(text):
    """Sum the cumulative time of the topmost entries of each package.

    ``-X importtime`` prints children before their parent, indented by two
    spaces per level. Read in reverse, each entry follows its parent.
    """
    entries = []
    for line in text.splitlines():
        if not line.startswith("import time:") or "|" not in line:
            continue
        parts = line[len("import time:"):].split("|")
        if not parts[1].strip().isdigit():
            continue  # the header line
        name = parts[2].rstrip()
        depth = (len(name) - len(name.lstrip())) // 2
        entries.append((depth, name.strip(), int(parts[1])))
    totals = {"cartanbundle": 0, "scipy": 0, "numpy": 0}
    # numpy and scipy are exclusive: numpy modules that scipy pulls in count as scipy.
    groups = {"cartanbundle": {"cartanbundle"}, "scipy": {"scipy", "numpy"}, "numpy": {"scipy", "numpy"}}
    stack = []  # package of each open ancestor level
    for depth, name, cumulative in reversed(entries):
        del stack[depth:]
        pkg = name.split(".")[0]
        if pkg in totals and not groups[pkg] & set(stack):
            totals[pkg] += cumulative
        stack.append(pkg)
    return {k: v * 1e-6 for k, v in totals.items()}
