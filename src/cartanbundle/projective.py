"""Closed forms for lines (p = 1): planar rotations, reflections, the
half-angle correspondence, the line-bundle exponential, and Moebius-band
sampling for n = 2.

A line is a ``Plane`` with p = 1: G(n, 1) is the Grassmannian at p = 1, and
C(n, 1) is its tautological line bundle (the Moebius band at n = 2)."""

from __future__ import annotations

import math

import numpy as np

from .errors import DimensionMismatchError
from .grassmann import Plane, plane_from_frame
from .liegroup import Motion, _half_angle_factor
from .matcore import basis_vector, check_finite_vector

_UNIT_TOL = 1e-12  # |1 - |V|| of a unit vector, and |U[0]| of a direction


def _unit_vector(V: np.ndarray, name: str) -> np.ndarray:
    """V as a float array, checked to be a 1-d unit vector in the input domain."""
    V = check_finite_vector(V, None, name)
    if abs(np.linalg.norm(V) - 1.0) > _UNIT_TOL:
        raise DimensionMismatchError(f"{name} must be a unit vector")
    return V


def unit_direction(U: np.ndarray) -> np.ndarray:
    """Validate a unit vector orthogonal to e_1."""
    U = _unit_vector(U, "direction")
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
    return _plane_rotation(theta, unit_direction(U))


def _plane_rotation(theta: float, U: np.ndarray) -> np.ndarray:
    """``rotation_in_plane`` for a validated direction U."""
    if not math.isfinite(theta):
        raise DimensionMismatchError("rotation angle must be finite")
    E1 = basis_vector(1, len(U))
    K = np.outer(U, E1) - np.outer(E1, U)
    return np.eye(len(U)) + math.sin(theta) * K + (1.0 - math.cos(theta)) * (K @ K)


def reflection_about_hyperplane_normal(V: np.ndarray) -> np.ndarray:
    """Reflection I - 2 V V^T through the hyperplane orthogonal to unit V."""
    V = _unit_vector(V, "reflection normal")
    return np.eye(V.shape[0]) - 2.0 * np.outer(V, V)


def _half_angle_vector(theta: float, U: np.ndarray) -> np.ndarray:
    """cos(theta/2) e_1 + sin(theta/2) U for a validated direction U."""
    return math.cos(0.5 * theta) * basis_vector(1, len(U)) + math.sin(0.5 * theta) * U


def half_angle_line(theta: float, U: np.ndarray) -> Plane:
    """The line carried by R_{theta,U}: [cos(theta/2) e_1 + sin(theta/2) U].

    Returned as the ``Plane`` (p = 1) of the normalised half-angle vector V.
    With J of ``Signature(1, n - 1)``, R_{theta,U} J = I - 2 V V^T.
    """
    V = _half_angle_vector(theta, unit_direction(U))
    return plane_from_frame((V / np.linalg.norm(V))[:, None])


def line_bundle_exp(theta: float, U: np.ndarray, lam: float) -> Motion:
    """Explicit exponential of the line-bundle generator (-theta e_1 ^ U, lam e_1).

    The translation part is lam (2 sin(theta/2)/theta) times the half-angle
    direction; the theta -> 0 limit is lam e_1. A non-finite theta or lam
    raises ``DimensionMismatchError``.
    """
    U = unit_direction(U)
    R = _plane_rotation(theta, U)
    if not math.isfinite(lam):
        raise DimensionMismatchError("fiber coordinate lam must be finite")
    return Motion(R, lam * _half_angle_factor(theta) * _half_angle_vector(theta, U))


def moebius_grid(num_theta: int, num_lambda: int, lambda_max: float) -> list:
    """Sample the Moebius band: the image of the n = 2 line-bundle generators.

    Records cover theta in [0, 2 pi) times lambda in [-lambda_max, lambda_max]
    and carry the motion, the carried line angle theta/2, and the fiber.
    """
    if num_theta < 1 or num_lambda < 1:
        raise DimensionMismatchError("grid sizes must be positive")
    U = np.array([0.0, 1.0])
    records = []
    thetas = [2.0 * math.pi * j / num_theta for j in range(num_theta)]
    lambdas = np.linspace(-lambda_max, lambda_max, num_lambda)
    for theta in thetas:
        for lam in lambdas:
            m = line_bundle_exp(theta, U, float(lam))
            records.append(
                {
                    "theta": theta,
                    "lambda": float(lam),
                    "r00": float(m.R[0, 0]),
                    "r01": float(m.R[0, 1]),
                    "r10": float(m.R[1, 0]),
                    "r11": float(m.R[1, 1]),
                    "x0": float(m.X[0]),
                    "x1": float(m.X[1]),
                    "line_angle": 0.5 * theta,
                    "y0": float(m.X[0]),
                    "y1": float(m.X[1]),
                }
            )
    return records


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
