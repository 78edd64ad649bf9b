"""JSON wire formats for matrices, motions, screws, planes, bundle points and Cartan values.

Matrices serialize as {"rows": n, "cols": m, "data": [row-major doubles]};
the other types compose that schema. A Cartan rotation is {"R", "p", "q"}
and a Cartan motion {"R", "X", "p", "q"}: the matrix or motion with its
signature, which is checked as a ``Signature`` before the value is
certified under the caller's tolerances. Every dimension read (``rows``,
``cols``, a plane's ``n`` and ``p``, a signature's ``p`` and ``q``) must be
a JSON integer of at least 1, not a bool, float or string, and a matrix's
``data`` and every vector a flat list of JSON numbers (each an int or a
float, not a bool), else ``DimensionMismatchError``. Every other field is
read by one reader, ``_field``: the value that holds it must be a JSON
object that has it, and a field that holds a motion, a bundle point or a
plane must be an object too, else ``ValueError`` (``invalid_input`` at the
command line) names the field and the JSON type it must have. Output is
strict JSON: a non-finite float (a NaN or infinite ``max_error`` in a
verify report, say) is written as null, never as the non-standard tokens
NaN or Infinity.
"""

from __future__ import annotations

import json
import math

import numpy as np

from .bundle import BundlePoint, CartanMotion, bundle_point
from .config import Tolerances, default_tolerances
from .errors import DimensionMismatchError
from .grassmann import CartanRotation, Plane, Signature, plane_from_frame
from .liegroup import Motion, Screw
from .matcore import _MAX_ABS, check_finite_matrix, check_finite_vector


def mat_to_json(M: np.ndarray) -> dict:
    """A 2-D array as {"rows", "cols", "data"}; any other ndim is ``DimensionMismatchError``."""
    M = np.asarray(M, dtype=float)
    if M.ndim != 2:
        raise DimensionMismatchError(f"a matrix to write must be 2-D, got shape {M.shape}")
    return {"rows": M.shape[0], "cols": M.shape[1], "data": M.ravel(order="C").tolist()}


def _dimension(obj: dict, key: str) -> int:
    """obj[key], which must be an integer of at least 1 (not a bool, float or string)."""
    k = obj.get(key) if isinstance(obj, dict) else None
    if type(k) is not int or k < 1:
        raise DimensionMismatchError(f"JSON {key} must be an integer of at least 1, got {k!r}")
    return k


def _numbers(data, name: str) -> list:
    """data, which must be a flat list of numbers (each an int or a float, not a bool).

    An int past the input ceiling fails here, not in the domain check, since
    NumPy cannot convert one past the float range.
    """
    if type(data) is not list or not all(
        type(x) is float or type(x) is int and abs(x) <= _MAX_ABS for x in data
    ):
        want = f"a flat list of numbers (int or float, not bool; an int at most {_MAX_ABS:g})"
        raise DimensionMismatchError(f"JSON {name} must be {want}, got {data!r:.80}")
    return data


# The JSON type of each parsed value, as a detail names it.
_JSON_TYPES = {type(None): "null", bool: "a boolean", int: "a number", float: "a number", str: "a string",
               list: "an array", dict: "an object"}
_OBJECT, _MATRIX, _NUMBERS = "an object", 'a matrix object {"rows", "cols", "data"}', "an array of numbers"


def _object(value, name: str) -> dict:
    """value, which must be a JSON object, read as ``name``; else ``ValueError`` naming its JSON type."""
    if type(value) is not dict:
        raise ValueError(f"JSON {name} must be an object, got {_JSON_TYPES.get(type(value), type(value).__name__)}")
    return value


def _field(obj, key: str, name: str, kind: str = _OBJECT):
    """obj[key], for obj read as the JSON object ``name`` (``_object``): the one reader of a field.

    ``kind`` is the JSON type the field must have, named in the detail if
    it is missing. A field of ``kind`` ``_OBJECT`` is checked to be an
    object here; a matrix (``_MATRIX``) and a vector (``_NUMBERS``) are
    checked by their own readers, ``mat_from_json`` and ``_numbers``.
    """
    if key not in _object(obj, name):
        raise ValueError(f'JSON {name} has no field "{key}", which must be {kind}')
    return _object(obj[key], f'{name} field "{key}"') if kind == _OBJECT else obj[key]


def mat_from_json(obj: dict, shape: tuple | None = None) -> np.ndarray:
    rows, cols = _dimension(obj, "rows"), _dimension(obj, "cols")
    data = _numbers(obj.get("data"), "matrix data")
    if len(data) != rows * cols:
        raise DimensionMismatchError("matrix JSON dimensions do not match data length")
    M = np.asarray(data, dtype=float).reshape(rows, cols)
    return check_finite_matrix(M, shape, "matrix JSON")


def vec_from_json(obj, n: int | None = None) -> np.ndarray:
    return check_finite_vector(_numbers(obj, "vector"), n, "vector JSON")


def motion_to_json(g: Motion) -> dict:
    return {"R": mat_to_json(g.R), "X": g.X.tolist()}


def motion_from_json(obj: dict) -> Motion:
    R = mat_from_json(_field(obj, "R", "motion", _MATRIX))
    return Motion(R, vec_from_json(_field(obj, "X", "motion", _NUMBERS), R.shape[0]))


def screw_to_json(xi: Screw) -> dict:
    return {"omega": mat_to_json(xi.omega), "v": xi.v.tolist()}


def screw_from_json(obj: dict) -> Screw:
    omega = mat_from_json(_field(obj, "omega", "screw", _MATRIX))
    return Screw(omega, vec_from_json(_field(obj, "v", "screw", _NUMBERS), omega.shape[0]))


def plane_to_json(plane: Plane) -> dict:
    return {"n": plane.n, "p": plane.p, "frame": mat_to_json(plane.frame)}


def plane_from_json(obj: dict, tol: Tolerances = default_tolerances()) -> Plane:
    F = mat_from_json(_field(obj, "frame", "plane", _MATRIX), (_dimension(obj, "n"), _dimension(obj, "p")))
    return plane_from_frame(F, tol)  # projector recomputed and frame validated


def bundle_point_to_json(b: BundlePoint) -> dict:
    return {"plane": plane_to_json(b.plane), "fiber": b.fiber.tolist()}


def bundle_point_from_json(obj: dict, tol: Tolerances = default_tolerances()) -> BundlePoint:
    plane = plane_from_json(_field(obj, "plane", "bundle point"), tol)
    return bundle_point(plane, vec_from_json(_field(obj, "fiber", "bundle point", _NUMBERS), plane.n))


def cartan_rotation_to_json(cr: CartanRotation) -> dict:
    return {"R": mat_to_json(cr.mat), "p": cr.sig.p, "q": cr.sig.q}


def cartan_rotation_from_json(obj: dict, tol: Tolerances = default_tolerances()) -> CartanRotation:
    R = mat_from_json(_field(obj, "R", "Cartan rotation", _MATRIX))
    sig = Signature(_dimension(obj, "p"), _dimension(obj, "q"))
    return CartanRotation.certify(R, sig, tol)


def cartan_motion_to_json(s: CartanMotion) -> dict:
    return {**motion_to_json(s.motion), "p": s.sig.p, "q": s.sig.q}


def cartan_motion_from_json(obj: dict, tol: Tolerances = default_tolerances()) -> CartanMotion:
    motion = motion_from_json(obj)
    sig = Signature(_dimension(obj, "p"), _dimension(obj, "q"))
    return CartanMotion.certify(motion, sig, tol)


def _finite_or_null(obj):
    """obj with every non-finite float, at any depth, replaced by None."""
    if isinstance(obj, float):
        return obj if math.isfinite(obj) else None
    if isinstance(obj, dict):
        return {k: _finite_or_null(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_finite_or_null(v) for v in obj]
    return obj


def dumps(obj) -> str:
    """Canonical strict JSON text: sorted keys, no trailing whitespace, null
    for each non-finite float."""
    return json.dumps(
        _finite_or_null(obj), sort_keys=True, separators=(",", ":"), allow_nan=False
    )
