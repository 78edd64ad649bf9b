"""Command-line entry point: JSON I/O, seeded sampling, verification, data emission.

Each subcommand is one row of ``COMMANDS``: its help text, whether it reads
JSON input, the flags it reads and a handler. ``main`` reads the input (from
``--in``, else stdin), runs the handler, writes its output (to ``--out``, else
stdout) and maps errors to exit codes, the same way for every command. A
subcommand accepts only the flags it reads:

    command    flags
    exp        --in --out --se | --so
    log        --in --out --se | --so --allow-pi
    embed      --in --out
    project    --in --out --n --p
    act        --in --out --n --p --twisted | --bundle
    transport  --in --out
    tau        --in --out --n --p
    sample     --out --n --p --seed --samples --kind
    verify     --out --n --p --seed --samples
    moebius    --out --num-theta --num-lambda --lambda-max --format

``--samples`` must be at least 1, a | joins mode switches that exclude each
other, and a flag must be spelled out in full. Every command also takes
tolerance overrides, ``--tol.<name> value``.

Exit codes: 0 success; 1 bad arguments or a domain error, with a
machine-readable JSON object on stderr; 2 verification failure; 141 stdout was
closed before the output was written (128 + SIGPIPE, as a shell reports for
``yes | head``), with nothing on stderr.
"""

from __future__ import annotations

import argparse
import json
import os
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


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


def _signature(args) -> gr.Signature:
    if args.n is None or args.p is None:
        raise DimensionMismatchError("this command requires --n and --p")
    if not 1 <= args.p < args.n:
        raise DimensionMismatchError("require 1 <= p < n")
    return gr.Signature(args.p, args.n - args.p)


# Flag name (underscores become dashes) -> add_argument keywords.
_SWITCH = {"action": "store_true"}
_MODE = {"action": "store_true"}  # a switch that excludes the other modes of its command
_DIMS = {"n": {"type": int}, "p": {"type": int}}
_DRAWS = {"seed": {"type": int, "default": 0}, "samples": {"type": _positive_int, "default": 500}}

# name -> (help, reads --in, flags, handler(args, input JSON, tol) -> (JSON or text, exit code))
COMMANDS = {}


def _command(name, summary, reads_input, **flags):
    def register(handler):
        COMMANDS[name] = (summary, reads_input, flags, handler)
        return handler

    return register


def _build_parser() -> _Parser:
    parser = _Parser(prog="cartan-bundle", allow_abbrev=False)
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (summary, reads_input, flags, _) in COMMANDS.items():
        p = sub.add_parser(name, help=summary, allow_abbrev=False)
        if reads_input:
            p.add_argument("--in", dest="infile")
        p.add_argument("--out", dest="outfile")
        modes = p.add_mutually_exclusive_group()
        for flag, keywords in flags.items():
            (modes if keywords is _MODE else p).add_argument("--" + flag.replace("_", "-"), **keywords)
    return parser


@_command("exp", "exponential of a screw (--se) or skew matrix (--so)", True, se=_MODE, so=_MODE)
def _exp(args, obj, tol):
    if args.so:
        return sz.mat_to_json(lg.so_exp(sz.mat_from_json(obj))), 0
    return sz.motion_to_json(lg.se_exp(sz.screw_from_json(obj))), 0


@_command(
    "log", "logarithm of a motion (--se) or rotation (--so)", True,
    se=_MODE, so=_MODE, allow_pi=_SWITCH,
)
def _log(args, obj, tol):
    if args.so:
        return sz.mat_to_json(lg.so_log(sz.mat_from_json(obj), tol, allow_pi=args.allow_pi)), 0
    return sz.screw_to_json(lg.se_log(sz.motion_from_json(obj), tol, allow_pi=args.allow_pi)), 0


@_command("embed", "plane -> Cartan rotation, bundle point -> Cartan motion", True)
def _embed(args, obj, tol):
    if "fiber" in obj:
        return sz.cartan_motion_to_json(bn.rho_inv(sz.bundle_point_from_json(obj, tol), tol)), 0
    cr = gr.cartan_embed0(sz.plane_from_json(obj, tol), tol)
    return {"R": sz.mat_to_json(cr.mat), "p": cr.sig.p, "q": cr.sig.q}, 0


@_command("project", "Cartan rotation -> plane, Cartan motion -> bundle point", True, **_DIMS)
def _project(args, obj, tol):
    if "X" in obj:
        return sz.bundle_point_to_json(bn.rho(sz.cartan_motion_from_json(obj, tol))), 0
    sig = _signature(args)
    cr = gr.CartanRotation.certify(sz.mat_from_json(obj), sig, tol)
    return sz.plane_to_json(gr.rho0(cr)), 0


@_command(
    "act", "twisted conjugation (--twisted) or bundle action (--bundle)", True,
    **_DIMS, twisted=_MODE, bundle=_MODE,
)
def _act(args, obj, tol):
    sig = _signature(args)
    a = sz.motion_from_json(obj["a"])
    if args.bundle:
        b = sz.bundle_point_from_json(obj["b"], tol)
        return sz.bundle_point_to_json(bn.bundle_act(a, b, sig, tol)), 0
    return sz.motion_to_json(bn.twisted_act(a, sz.motion_from_json(obj["g"]), sig)), 0


@_command("transport", "motion carrying one bundle point to another", True)
def _transport(args, obj, tol):
    src = sz.bundle_point_from_json(obj["src"], tol)
    dst = sz.bundle_point_from_json(obj["dst"], tol)
    return sz.motion_to_json(bn.find_transporter(src, dst, tol)), 0


@_command("tau", "orbit map g -> g sigma(g^-1)", True, **_DIMS)
def _tau(args, obj, tol):
    sig = _signature(args)
    return sz.cartan_motion_to_json(bn.tau(sz.motion_from_json(obj), sig, tol)), 0


def _dp_json(x) -> dict:
    """A DpGenerator as {p, q, B}; a DpElement adds its v."""
    gen = x.gen if isinstance(x, bn.DpElement) else x
    out = {"p": gen.p, "q": gen.q, "B": sz.mat_to_json(gen.B)}
    return out if gen is x else {**out, "v": x.v.tolist()}


_DP_BOUND = np.pi - 0.1

# kind -> (needs --p, draw(rng, n, p) -> JSON)
SAMPLERS = {
    "rotation": (False, lambda rng, n, p: sz.mat_to_json(sp.sample_rotation(rng, n))),
    "skew": (False, lambda rng, n, p: sz.mat_to_json(sp.sample_skew(rng, n))),
    "screw": (False, lambda rng, n, p: sz.screw_to_json(sp.sample_screw(rng, n))),
    "motion": (False, lambda rng, n, p: sz.motion_to_json(sp.sample_motion(rng, n))),
    "plane": (True, lambda rng, n, p: sz.plane_to_json(sp.sample_plane(rng, n, p))),
    "unit_direction": (False, lambda rng, n, p: sp.sample_unit_direction(rng, n).tolist()),
    "dp_generator": (
        True, lambda rng, n, p: _dp_json(sp.sample_dp_generator(rng, p, n - p, bound=_DP_BOUND))
    ),
    "dp_element": (
        True, lambda rng, n, p: _dp_json(sp.sample_dp_element(rng, p, n - p, bound=_DP_BOUND))
    ),
    "bundle_point": (
        True, lambda rng, n, p: sz.bundle_point_to_json(sp.sample_bundle_point(rng, n, p))
    ),
    "cartan_motion": (
        True, lambda rng, n, p: sz.cartan_motion_to_json(sp.sample_cartan_motion(rng, n, p))
    ),
    "fixed_point": (
        True, lambda rng, n, p: sz.motion_to_json(sp.sample_fixed_point(rng, gr.Signature(p, n - p)))
    ),
}


@_command(
    "sample", "seeded sampling of domain types", False,
    **_DIMS, **_DRAWS, kind={"choices": tuple(SAMPLERS), "required": True},
)
def _sample(args, obj, tol):
    needs_p, draw = SAMPLERS[args.kind]
    if needs_p:
        _signature(args)
    elif args.n is None:
        raise DimensionMismatchError("sampling requires --n")
    rng = sp.make_rng(args.seed, 0)
    values = [draw(rng, args.n, args.p) for _ in range(args.samples)]
    return {"kind": args.kind, "seed": args.seed, "values": values}, 0


@_command("verify", "run the full property harness", False, **_DIMS, **_DRAWS)
def _verify(args, obj, tol):
    sig = _signature(args)
    cfg = VerifyConfig(n=sig.n, p=sig.p, samples=args.samples, seed=args.seed, tol=tol)
    report = run_verification(cfg)
    return report.to_json(), (0 if report.passed else 2)


@_command(
    "moebius", "emit the Moebius band point set", False,
    num_theta={"type": int, "default": 64}, num_lambda={"type": int, "default": 9},
    lambda_max={"type": float, "default": 2.0}, format={"choices": ("json", "csv"), "default": "json"},
)
def _moebius(args, obj, tol):
    records = pj.moebius_grid(args.num_theta, args.num_lambda, args.lambda_max)
    if args.format == "csv":
        rows = [pj.MOEBIUS_COLUMNS] + [[repr(rec[c]) for c in pj.MOEBIUS_COLUMNS] for rec in records]
        return "\n".join(",".join(row) for row in rows), 0
    return "\n".join(sz.dumps(rec) for rec in records), 0


def _emit_error(code: str, detail: str, context=None):
    sys.stderr.write(sz.dumps({"error": code, "detail": detail, "context": context or {}}) + "\n")


def main(argv=None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    try:
        overrides, rest = _extract_tol_flags(list(argv))
        args = _build_parser().parse_args(rest)
        tol = default_tolerances().with_overrides(overrides)
        _, reads_input, _, handler = COMMANDS[args.command]
        obj = None
        if reads_input and args.infile:
            with open(args.infile, "r", encoding="utf-8") as fh:
                obj = json.load(fh)
        elif reads_input:
            obj = json.load(sys.stdin)
        out, code = handler(args, obj, tol)
        text = (out if isinstance(out, str) else sz.dumps(out)) + "\n"
        if args.outfile:
            with open(args.outfile, "w", encoding="utf-8") as fh:
                fh.write(text)
            return code
        try:
            # Loop until every byte is out: an unbuffered stdout is a raw
            # FileIO, whose short write to a closing pipe TextIOWrapper ignores.
            out, data = sys.stdout.buffer, memoryview(text.encode(sys.stdout.encoding))
            while data:
                data = data[out.write(data):]
            out.flush()
        except BrokenPipeError:
            # The reader has gone. Stay silent, as `yes | head` does, and point
            # stdout at /dev/null so the interpreter's shutdown flush is silent too.
            devnull = os.open(os.devnull, os.O_WRONLY)
            os.dup2(devnull, sys.stdout.fileno())
            os.close(devnull)
            return 141
        return code
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
