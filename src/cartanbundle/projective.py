"""Closed forms for lines (p = 1): planar rotations, the half-angle
correspondence, the line-bundle exponential, and Moebius-band sampling for
n = 2.

A line is a ``Plane`` with p = 1: G(n, 1) is the Grassmannian at p = 1, and
C(n, 1) is its tautological line bundle (the Moebius band at n = 2). Every
angle theta and fiber coordinate lam passes ``matcore.check_finite_scalar``,
the entry test of the arrays the library accepts."""

from __future__ import annotations

import math

import numpy as np

from .errors import DimensionMismatchError
from .grassmann import Plane, plane_from_frame
from .liegroup import Motion, _half_angle_factor
from .matcore import _is_int, basis_vector, check_finite_scalar, check_finite_vector

_UNIT_TOL = 1e-12  # |1 - |U|| of a unit direction, and |U[0]|


def unit_direction(U: np.ndarray) -> np.ndarray:
    """Validate a unit vector orthogonal to e_1."""
    U = check_finite_vector(U, None, "direction")
    if abs(np.linalg.norm(U) - 1.0) > _UNIT_TOL:
        raise DimensionMismatchError("direction must be a unit vector")
    if U.shape[0] < 2:
        raise DimensionMismatchError("direction must be a vector in dimension >= 2")
    if abs(U[0]) > _UNIT_TOL:
        raise DimensionMismatchError("direction must be orthogonal to e_1")
    return U


def rotation_in_plane(theta: float, U: np.ndarray) -> np.ndarray:
    """Rotation by theta in the plane of e_1 and U: exp(-theta e_1 ^ U).

    Sends e_1 to cos(theta) e_1 + sin(theta) U and fixes the orthogonal
    complement of span(e_1, U). With K = -(e_1 ^ U), K^2 is minus the
    projector onto that plane, so Rodrigues' closed form
    I + sin(theta) K + (1 - cos(theta)) K^2 is the exponential exactly; no
    canonical form is computed.
    """
    U = unit_direction(U)
    return _plane_rotation(check_finite_scalar(theta, "rotation angle"), U)


def _plane_rotation(theta: float, U: np.ndarray) -> np.ndarray:
    """``rotation_in_plane`` for a validated angle and direction."""
    E1 = basis_vector(1, len(U))
    K = np.outer(U, E1) - np.outer(E1, U)
    return np.eye(len(U)) + math.sin(theta) * K + (1.0 - math.cos(theta)) * (K @ K)


def _half_angle_vector(theta: float, U: np.ndarray) -> np.ndarray:
    """cos(theta/2) e_1 + sin(theta/2) U for a validated direction U."""
    return math.cos(0.5 * theta) * basis_vector(1, len(U)) + math.sin(0.5 * theta) * U


def half_angle_line(theta: float, U: np.ndarray) -> Plane:
    """The line carried by R_{theta,U}: [cos(theta/2) e_1 + sin(theta/2) U].

    Returned as the ``Plane`` (p = 1) of the normalised half-angle vector V.
    With J of ``Signature(1, n - 1)``, R_{theta,U} J = I - 2 V V^T.
    """
    U = unit_direction(U)
    V = _half_angle_vector(check_finite_scalar(theta, "rotation angle"), U)
    return plane_from_frame((V / np.linalg.norm(V))[:, None])


def line_bundle_exp(theta: float, U: np.ndarray, lam: float) -> Motion:
    """Explicit exponential of the line-bundle generator (-theta e_1 ^ U, lam e_1).

    The translation part is lam (2 sin(theta/2)/theta) times the half-angle
    direction; the theta -> 0 limit is lam e_1. A theta or lam outside the
    input domain raises ``DimensionMismatchError``.
    """
    U = unit_direction(U)
    theta = check_finite_scalar(theta, "rotation angle")
    lam = check_finite_scalar(lam, "fiber coordinate lam")
    R = _plane_rotation(theta, U)
    return Motion(R, lam * _half_angle_factor(theta) * _half_angle_vector(theta, U))


MOEBIUS_COLUMNS = (
    "theta",
    "lambda",
    "r00",
    "r01",
    "r10",
    "r11",
    "x0",
    "x1",
    "line_angle",
    "y0",
    "y1",
)


def moebius_grid(num_theta: int, num_lambda: int, lambda_max: float) -> list:
    """Sample the Moebius band: the image of the n = 2 line-bundle generators.

    Records cover theta in [0, 2 pi) times lambda in [-lambda_max, lambda_max]
    and carry, in the order of ``MOEBIUS_COLUMNS``: theta, lambda, the
    rotation R row-major, the translation X, the carried line angle theta/2,
    and the fiber (X again). The sizes must be integers of at least 1 and
    lambda_max must be in the input domain, else ``DimensionMismatchError``.
    """
    if not all(_is_int(k) and k >= 1 for k in (num_theta, num_lambda)):
        raise DimensionMismatchError("grid sizes must be integers >= 1")
    lambda_max = check_finite_scalar(lambda_max, "lambda_max")
    lambdas = np.linspace(-lambda_max, lambda_max, num_lambda).tolist()
    U = np.array([0.0, 1.0])
    records = []
    for theta in (2.0 * math.pi * np.arange(num_theta) / num_theta).tolist():
        for lam in lambdas:
            m = line_bundle_exp(theta, U, lam)
            X = m.X.tolist()
            values = (theta, lam, *m.R.ravel().tolist(), *X, 0.5 * theta, *X)
            records.append(dict(zip(MOEBIUS_COLUMNS, values)))
    return records
