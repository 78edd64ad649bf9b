"""Command-line entry point: JSON I/O, seeded sampling, verification, data emission.

Each subcommand is one row of ``COMMANDS``: its help text, whether it reads
JSON input, the flags it reads and a handler. ``main`` reads the input (from
``--in``, else stdin), runs the handler, writes its output (to ``--out``, else
stdout) and maps errors to exit codes, the same way for every command. A
subcommand accepts only the flags it reads, picks its map by the form of its
input, and takes n and p from its input where the input carries them:

    command    flags
    exp        --in --out
    log        --in --out --allow-pi --tol.{orth,branch}
    embed      --in --out --tol.{orth,invol,fiber}
    project    --in --out --tol.{orth,invol,fiber}
    act        --in --out --p --tol.{orth,fiber}
    transport  --in --out --tol.{orth,fiber}
    tau        --in --out --p --tol.{orth,invol,fiber}
    sample     --out --n --p --seed --samples --kind
    verify     --out --n --p --seed --samples --tol.{orth,invol,branch,plane,fiber}
    moebius    --out --num-theta --num-lambda --lambda-max --format

A command with two maps tells its input forms apart by one key, and reads
any value without it as the other form: ``exp`` a screw (``omega``) or a
skew matrix, ``log`` a motion (``X``) or a rotation matrix, ``embed`` a
bundle point (``fiber``) or a plane, ``project`` a Cartan motion (``X``) or
a Cartan rotation, ``act`` a pair ``{a, b}`` with a bundle point (``b``) or
``{a, g}``. Every command that reads input reads one JSON object; any
other JSON value, a missing field, or a motion, plane or bundle point that
is not an object is invalid input, whose detail names the field and the
JSON type it must have (``serialize._field``). The input is read before a
flag is checked against it.
``--samples`` must be at least 1, and a flag must be spelled out in full.
``project`` reads n and p from its input. ``act`` on ``{a, g}`` and ``tau``
read n from the input motion (``a`` for ``act``) and p from ``--p``; a
missing ``--p`` is ``dimension_mismatch``. ``act`` on ``{a, b}`` reads the
signature from the bundle point, so ``--p`` there is ``bad_arguments``, as
it is on a ``sample`` kind that does not read it. ``--tol.NAME VALUE``
overrides the ``Tolerances`` field NAME; a command takes the flags of
exactly the fields its maps read, listed by its ``--help``. ``act`` reads
``--tol.orth`` on both input forms: the frame check of the plane of b, and
the SO(n) check of a on ``{a, g}``. On ``{a, b}`` the rotation A of a is
read only on the plane pi of b, and that frame check certifies that A maps
pi isometrically: a = (2 I, 0) is ``degenerate_spanning_set``, and a
reflection acts as the rotation that agrees with it on pi (H A, for H the
reflection across a hyperplane that contains A pi). A ``--tol`` flag is an
option of the subcommand like any other: an unknown name (``--tol.rank``
and ``--tol.sing`` too, since the rank cutoff of ``orthonormalize`` and the
singular cutoffs of ``y_omega_solve`` and ``dp_log0`` are fixed constants), a
value that is not a number, a field the command does not read, or the flag
before the subcommand is ``bad_arguments``; a value that is not a finite
positive number is ``invalid_input``, as ``Tolerances`` rejects it.

Exit codes: 0 success; 1 bad arguments, invalid input (malformed JSON,
JSON nested too deeply to read, a value of the wrong JSON type or form)
or a domain error, with a machine-readable JSON object on stderr; 2
verification failure; 141 stdout was closed before the output was written
(128 + SIGPIPE, as a shell reports for ``yes | head``), with nothing on
stderr.
"""

from __future__ import annotations

import argparse
import dataclasses
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
from .config import Tolerances, default_tolerances
from .errors import DimensionMismatchError, GeometryError
from .verify import VerifyConfig, run_verification


class _CliArgumentError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _CliArgumentError(message)


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


def _signature(n, p) -> gr.Signature:
    """(p, n - p), for n and p each from a flag or the input; a flag not given is None."""
    missing = [f"--{k}" for k, v in (("n", n), ("p", p)) if v is None]
    if missing:
        raise DimensionMismatchError(f"this command requires {' and '.join(missing)}")
    return gr.Signature(p, n - p)


# Flag name (underscores become dashes) -> add_argument keywords.
_DIMS = {"n": {"type": int}, "p": {"type": int}}
_DRAWS = {"seed": {"type": int, "default": 0}, "samples": {"type": _positive_int, "default": 500}}
_TOL = {  # Tolerances field -> flag "--tol.<name>", dest "tol.<name>", set only when given
    f.name: {"type": float, "default": argparse.SUPPRESS, "metavar": "VALUE",
             "help": f"tolerance override (default {f.default:g})"}
    for f in dataclasses.fields(Tolerances)
}


def _tol(*names) -> dict:
    """The ``--tol.*`` flags of the named ``Tolerances`` fields: those a command's maps read."""
    return {f"tol.{name}": _TOL[name] for name in names}


_MEMBERSHIP = _tol("orth", "invol", "fiber")  # S_p0 / S_p membership and the bundle point's fiber

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
        for flag, keywords in flags.items():
            p.add_argument("--" + flag.replace("_", "-"), **keywords)
    return parser


@_command("exp", "exponential of a screw {omega, v} or a skew matrix", True)
def _exp(args, obj, tol):
    if "omega" in obj:
        return sz.motion_to_json(lg.se_exp(sz.screw_from_json(obj))), 0
    return sz.mat_to_json(lg.so_exp(sz.mat_from_json(obj))), 0


@_command(
    "log", "logarithm of a motion {R, X} or a rotation matrix", True,
    allow_pi={"action": "store_true"}, **_tol("orth", "branch"),
)
def _log(args, obj, tol):
    if "X" in obj:
        return sz.screw_to_json(lg.se_log(sz.motion_from_json(obj), tol, allow_pi=args.allow_pi)), 0
    return sz.mat_to_json(lg.so_log(sz.mat_from_json(obj), tol, allow_pi=args.allow_pi)), 0


@_command("embed", "plane -> Cartan rotation, bundle point -> Cartan motion", True, **_MEMBERSHIP)
def _embed(args, obj, tol):
    if "fiber" in obj:
        return sz.cartan_motion_to_json(bn.rho_inv(sz.bundle_point_from_json(obj, tol))), 0
    return sz.cartan_rotation_to_json(gr.cartan_embed0(sz.plane_from_json(obj, tol))), 0


@_command("project", "Cartan rotation -> plane, Cartan motion -> bundle point", True, **_MEMBERSHIP)
def _project(args, obj, tol):
    if "X" in obj:
        return sz.bundle_point_to_json(bn.rho(sz.cartan_motion_from_json(obj, tol))), 0
    return sz.plane_to_json(gr.rho0(sz.cartan_rotation_from_json(obj, tol))), 0


@_command(
    "act", "twisted conjugation of {a, g} (with --p) or bundle action on {a, b}", True,
    p=_DIMS["p"], **_tol("orth", "fiber"),
)
def _act(args, obj, tol):
    if "b" in obj and args.p is not None:
        raise _CliArgumentError("act reads the signature from the bundle point b, not from --p")
    a = sz.motion_from_json(sz._field(obj, "a", "input"))
    if "b" in obj:
        b = sz.bundle_point_from_json(sz._field(obj, "b", "input"), tol)
        return sz.bundle_point_to_json(bn.bundle_act(a, b, _signature(b.n, b.plane.p))), 0
    g = sz.motion_from_json(sz._field(obj, "g", "input"))
    return sz.motion_to_json(bn.twisted_act(a, g, _signature(a.n, args.p), tol)), 0


@_command("transport", "motion carrying one bundle point to another", True, **_tol("orth", "fiber"))
def _transport(args, obj, tol):
    src = sz.bundle_point_from_json(sz._field(obj, "src", "input"), tol)
    dst = sz.bundle_point_from_json(sz._field(obj, "dst", "input"), tol)
    return sz.motion_to_json(bn.find_transporter(src, dst)), 0


@_command("tau", "orbit map g -> g sigma(g^-1)", True, p=_DIMS["p"], **_MEMBERSHIP)
def _tau(args, obj, tol):
    g = sz.motion_from_json(obj)
    return sz.cartan_motion_to_json(bn.tau(g, _signature(g.n, args.p), tol)), 0


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
        _signature(args.n, args.p)
    elif args.p is not None:
        raise _CliArgumentError(f"sample --kind {args.kind} does not read --p")
    elif args.n is None:
        raise DimensionMismatchError("sampling requires --n")
    rng = sp.make_rng(args.seed, 0)
    values = [draw(rng, args.n, args.p) for _ in range(args.samples)]
    return {"kind": args.kind, "seed": args.seed, "values": values}, 0


@_command(
    "verify", "run the full property harness", False,
    **_DIMS, **_DRAWS, **_tol("orth", "invol", "branch", "plane", "fiber"),
)
def _verify(args, obj, tol):
    sig = _signature(args.n, args.p)
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


def _read_json(path):
    """The JSON value read from ``path``, or from stdin if it is None.

    JSON nested past Python's recursion limit makes ``json.load`` raise
    ``RecursionError``; it is invalid input, a ``ValueError`` here, as
    malformed JSON is.
    """
    try:
        if path:
            with open(path, "r", encoding="utf-8") as fh:
                return json.load(fh)
        return json.load(sys.stdin)
    except RecursionError:
        raise ValueError("JSON input is nested too deeply") from None


def _emit_error(code: str, detail: str, context=None):
    sys.stderr.write(sz.dumps({"error": code, "detail": detail, "context": context or {}}) + "\n")


def main(argv=None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    try:
        args = _build_parser().parse_args(argv)
        overrides = {dest[4:]: value for dest, value in vars(args).items() if dest.startswith("tol.")}
        tol = dataclasses.replace(default_tolerances(), **overrides)
        _, reads_input, _, handler = COMMANDS[args.command]
        obj = sz._object(_read_json(args.infile), "input") if reads_input else None
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
