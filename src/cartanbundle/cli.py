"""Command-line entry point: JSON I/O, seeded sampling, verification, data emission.

Exit codes: 0 success, 1 domain error (machine-readable JSON on stderr),
2 verification failure.
"""

from __future__ import annotations

import argparse
import json
import sys

import numpy as np

from . import bundle as bn
from . import grassmann as gr
from . import liegroup as lg
from . import projective as pj
from . import sampling as sp
from . import serialize as sz
from .config import default_tolerances
from .errors import DimensionMismatchError, GeometryError
from .verify import VerifyConfig, run_verification


class _CliArgumentError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _CliArgumentError(message)


def _extract_tol_flags(argv):
    """Pull ``--tol.<name> value`` pairs out of argv before argparse sees them."""
    overrides = {}
    rest = []
    i = 0
    while i < len(argv):
        arg = argv[i]
        if arg.startswith("--tol."):
            name = arg[len("--tol.") :]
            value = None
            if "=" in name:
                name, value = name.split("=", 1)
            elif i + 1 < len(argv):
                i += 1
                value = argv[i]
            if value is None:
                raise _CliArgumentError(f"missing value for --tol.{name}")
            try:
                overrides[name] = float(value)
            except ValueError as exc:
                raise _CliArgumentError(f"bad tolerance value for {name}: {value}") from exc
        else:
            rest.append(arg)
        i += 1
    return overrides, rest


def _build_parser() -> _Parser:
    parser = _Parser(prog="cartan-bundle")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, io=True, dims=True):
        if dims:
            p.add_argument("--n", type=int, default=None)
            p.add_argument("--p", type=int, default=None)
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--samples", type=int, default=500)
        if io:
            p.add_argument("--in", dest="infile", default=None)
            p.add_argument("--out", dest="outfile", default=None)
        p.add_argument("--format", choices=("json", "csv"), default="json")

    p = sub.add_parser("exp", help="exponential of a screw (--se) or skew matrix (--so)")
    p.add_argument("--se", action="store_true")
    p.add_argument("--so", action="store_true")
    common(p)

    p = sub.add_parser("log", help="logarithm of a motion (--se) or rotation (--so)")
    p.add_argument("--se", action="store_true")
    p.add_argument("--so", action="store_true")
    p.add_argument("--allow-pi", action="store_true")
    common(p)

    p = sub.add_parser("embed", help="plane -> Cartan rotation, bundle point -> Cartan motion")
    common(p)

    p = sub.add_parser("project", help="Cartan rotation -> plane, Cartan motion -> bundle point")
    common(p)

    p = sub.add_parser("act", help="twisted conjugation (--twisted) or bundle action (--bundle)")
    p.add_argument("--twisted", action="store_true")
    p.add_argument("--bundle", action="store_true")
    common(p)

    p = sub.add_parser("transport", help="motion carrying one bundle point to another")
    common(p)

    p = sub.add_parser("tau", help="orbit map g -> g sigma(g^-1)")
    common(p)

    p = sub.add_parser("sample", help="seeded sampling of domain types")
    p.add_argument("--kind", choices=sp.SAMPLE_KINDS, required=True)
    common(p)

    p = sub.add_parser("verify", help="run the full property harness")
    common(p)

    p = sub.add_parser("moebius", help="emit the Moebius band point set")
    p.add_argument("--num-theta", type=int, default=64)
    p.add_argument("--num-lambda", type=int, default=9)
    p.add_argument("--lambda-max", type=float, default=2.0)
    common(p, dims=False)

    return parser


def _read_input(args) -> dict:
    if args.infile:
        with open(args.infile, "r", encoding="utf-8") as fh:
            return json.load(fh)
    return json.load(sys.stdin)


def _write_output(args, text: str):
    if getattr(args, "outfile", None):
        with open(args.outfile, "w", encoding="utf-8") as fh:
            fh.write(text)
            if not text.endswith("\n"):
                fh.write("\n")
    else:
        sys.stdout.write(text)
        if not text.endswith("\n"):
            sys.stdout.write("\n")


def _signature(args) -> gr.Signature:
    if args.n is None or args.p is None:
        raise DimensionMismatchError("this command requires --n and --p")
    if not 1 <= args.p < args.n:
        raise DimensionMismatchError("require 1 <= p < n")
    return gr.Signature(args.p, args.n - args.p)


def _sample_value(kind, rng, args, tol):
    n, p = args.n, args.p
    if kind in ("plane", "dp_generator", "dp_element", "bundle_point", "cartan_motion", "fixed_point"):
        sig = _signature(args)
        n, p = sig.n, sig.p
    elif n is None:
        raise DimensionMismatchError("sampling requires --n")
    if kind == "rotation":
        return sz.mat_to_json(sp.sample_rotation(rng, n))
    if kind == "skew":
        return sz.mat_to_json(sp.sample_skew(rng, n))
    if kind == "screw":
        return sz.screw_to_json(sp.sample_screw(rng, n))
    if kind == "motion":
        return sz.motion_to_json(sp.sample_motion(rng, n))
    if kind == "plane":
        return sz.plane_to_json(sp.sample_plane(rng, n, p))
    if kind == "unit_direction":
        return sp.sample_unit_direction(rng, n).tolist()
    if kind == "dp_generator":
        gen = sp.sample_dp_generator(rng, p, n - p, bound=np.pi - 0.1)
        return {"p": gen.p, "q": gen.q, "B": sz.mat_to_json(gen.B)}
    if kind == "dp_element":
        el = sp.sample_dp_element(rng, p, n - p, bound=np.pi - 0.1)
        return {"p": el.gen.p, "q": el.gen.q, "B": sz.mat_to_json(el.gen.B), "v": el.v.tolist()}
    if kind == "bundle_point":
        return sz.bundle_point_to_json(sp.sample_bundle_point(rng, n, p))
    if kind == "cartan_motion":
        return sz.cartan_motion_to_json(sp.sample_cartan_motion(rng, n, p))
    if kind == "fixed_point":
        return sz.motion_to_json(sp.sample_fixed_point(rng, gr.Signature(p, n - p)))
    raise DimensionMismatchError(f"unknown sample kind {kind}")


def _dispatch(args, tol) -> int:
    cmd = args.command

    if cmd == "exp":
        obj = _read_input(args)
        if args.so:
            out = sz.mat_to_json(lg.so_exp(sz.mat_from_json(obj)))
        else:
            out = sz.motion_to_json(lg.se_exp(sz.screw_from_json(obj)))
        _write_output(args, sz.dumps(out))
        return 0

    if cmd == "log":
        obj = _read_input(args)
        if args.so:
            out = sz.mat_to_json(lg.so_log(sz.mat_from_json(obj), tol, allow_pi=args.allow_pi))
        else:
            out = sz.screw_to_json(lg.se_log(sz.motion_from_json(obj), tol, allow_pi=args.allow_pi))
        _write_output(args, sz.dumps(out))
        return 0

    if cmd == "embed":
        obj = _read_input(args)
        if "fiber" in obj:
            s = bn.rho_inv(sz.bundle_point_from_json(obj, tol), tol)
            out = sz.cartan_motion_to_json(s)
        else:
            cr = gr.cartan_embed0(sz.plane_from_json(obj, tol), tol)
            out = {"R": sz.mat_to_json(cr.mat), "p": cr.sig.p, "q": cr.sig.q}
        _write_output(args, sz.dumps(out))
        return 0

    if cmd == "project":
        obj = _read_input(args)
        if "X" in obj:
            b = bn.rho(sz.cartan_motion_from_json(obj, tol), tol)
            out = sz.bundle_point_to_json(b)
        else:
            sig = _signature(args)
            cr = gr.CartanRotation.certify(sz.mat_from_json(obj), sig, tol)
            out = sz.plane_to_json(gr.rho0(cr, tol))
        _write_output(args, sz.dumps(out))
        return 0

    if cmd == "act":
        obj = _read_input(args)
        sig = _signature(args)
        a = sz.motion_from_json(obj["a"])
        if args.bundle:
            b = sz.bundle_point_from_json(obj["b"], tol)
            out = sz.bundle_point_to_json(bn.bundle_act(a, b, sig, tol))
        else:
            g = sz.motion_from_json(obj["g"])
            out = sz.motion_to_json(bn.twisted_act(a, g, sig))
        _write_output(args, sz.dumps(out))
        return 0

    if cmd == "transport":
        obj = _read_input(args)
        src = sz.bundle_point_from_json(obj["src"], tol)
        dst = sz.bundle_point_from_json(obj["dst"], tol)
        _write_output(args, sz.dumps(sz.motion_to_json(bn.find_transporter(src, dst, tol))))
        return 0

    if cmd == "tau":
        obj = _read_input(args)
        sig = _signature(args)
        s = bn.tau(sz.motion_from_json(obj), sig, tol)
        _write_output(args, sz.dumps(sz.cartan_motion_to_json(s)))
        return 0

    if cmd == "sample":
        rng = sp.make_rng(args.seed, 0)
        values = [_sample_value(args.kind, rng, args, tol) for _ in range(args.samples)]
        _write_output(args, sz.dumps({"kind": args.kind, "seed": args.seed, "values": values}))
        return 0

    if cmd == "verify":
        if args.n is None or args.p is None:
            raise DimensionMismatchError("verify requires --n and --p")
        cfg = VerifyConfig(n=args.n, p=args.p, samples=args.samples, seed=args.seed, tol=tol)
        report = run_verification(cfg)
        _write_output(args, sz.dumps(report.to_json()))
        return 0 if report.passed else 2

    if cmd == "moebius":
        records = pj.moebius_grid(args.num_theta, args.num_lambda, args.lambda_max)
        if args.format == "csv":
            lines = [",".join(pj.MOEBIUS_COLUMNS)]
            lines += [
                ",".join(repr(rec[c]) for c in pj.MOEBIUS_COLUMNS) for rec in records
            ]
            _write_output(args, "\n".join(lines))
        else:
            _write_output(args, "\n".join(sz.dumps(rec) for rec in records))
        return 0

    raise DimensionMismatchError(f"unknown command {cmd}")


def _emit_error(code: str, detail: str, context=None):
    sys.stderr.write(
        sz.dumps({"error": code, "detail": detail, "context": context or {}}) + "\n"
    )


def main(argv=None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    try:
        overrides, rest = _extract_tol_flags(list(argv))
        args = _build_parser().parse_args(rest)
        tol = default_tolerances().with_overrides(overrides)
        return _dispatch(args, tol)
    except _CliArgumentError as exc:
        _emit_error("bad_arguments", str(exc))
        return 1
    except GeometryError as exc:
        _emit_error(exc.code, exc.detail, {k: v for k, v in exc.context.items()})
        return 1
    except (json.JSONDecodeError, KeyError, TypeError, ValueError, OSError) as exc:
        _emit_error("invalid_input", f"{type(exc).__name__}: {exc}")
        return 1


if __name__ == "__main__":
    sys.exit(main())
