"""Lines (p = 1): planar rotations, the half-angle correspondence, the
line-bundle exponential, and Moebius-band sampling for n = 2.

A line is a ``Plane`` with p = 1: G(n, 1) is the Grassmannian at p = 1, and
C(n, 1) is its tautological line bundle (the Moebius band at n = 2). So each
map here is a map of ``grassmann`` or ``bundle`` at the signature
(1, n - 1), for the generator whose q x 1 block is B = theta U[1:]: the
rotation by theta in the plane of e_1 and a unit direction U orthogonal to
e_1. The rotation is ``dp_exp`` of it, its line ``rho0`` of that, and the
line-bundle exponential ``dp_exp_full``, each from one SVD of B; the
Moebius grid is one call of ``dp_exp_full`` on the stacked element of the
whole grid. Every angle theta and fiber coordinate lam passes
``matcore.check_finite_scalar``, the entry test of the arrays the library
accepts. ``unit_direction`` and ``_line_block`` also take stacks of
directions, which ``verify``'s line rows pass; the line maps return one
record each and read their angle and lam as Python scalars, so they take
one direction, and a stack fails the direction check (``matcore._one``)."""

from __future__ import annotations

import math

import numpy as np

from .bundle import DpElement, dp_exp_full
from .errors import DimensionMismatchError
from .grassmann import DpGenerator, Plane, dp_exp, rho0
from .liegroup import Motion
from .matcore import _is_dim, _norm, _one, _require, check_finite_scalar, check_finite_vector

_UNIT_TOL = 1e-12  # |1 - |U|| of a unit direction, and |U[0]|


def unit_direction(U: np.ndarray) -> np.ndarray:
    """Validate a unit vector orthogonal to e_1, or each of a stack."""
    U = check_finite_vector(U, None, "direction", None)
    _require(abs(_norm(U, 1) - 1.0) <= _UNIT_TOL, DimensionMismatchError, "direction must be a unit vector")
    if U.shape[-1] < 2:
        raise DimensionMismatchError("direction must be a vector in dimension >= 2")
    _require(abs(U[..., 0]) <= _UNIT_TOL, DimensionMismatchError, "direction must be orthogonal to e_1")
    return U


def _line_block(theta, U: np.ndarray) -> np.ndarray:
    """B = theta U[1:], the q x 1 generator block of exp(-theta e_1 ^ U).

    For an array theta, one per entry; a stack of directions U goes with a
    theta of its leading shape.
    """
    return np.asarray(theta)[..., None, None] * U[..., 1:, None]


def _line_generator(theta: float, U: np.ndarray) -> DpGenerator:
    """The generator of the rotation by theta in the plane of e_1 and one direction U; U is checked first, then theta."""
    U = _one(unit_direction(U), "direction", 1)
    return DpGenerator(1, len(U) - 1, _line_block(check_finite_scalar(theta, "rotation angle"), U))


def rotation_in_plane(theta: float, U: np.ndarray) -> np.ndarray:
    """Rotation by theta in the plane of e_1 and U: exp(-theta e_1 ^ U), read-only.

    Sends e_1 to cos(theta) e_1 + sin(theta) U and fixes the orthogonal
    complement of span(e_1, U). It is ``dp_exp`` of the generator with
    B = theta U[1:] at the signature (1, n - 1).
    """
    return dp_exp(_line_generator(theta, U)).mat


def half_angle_line(theta: float, U: np.ndarray) -> Plane:
    """The line carried by R_{theta,U}: [cos(theta/2) e_1 + sin(theta/2) U].

    It is ``rho0`` of ``dp_exp``, whose frame is that half-angle vector in
    closed form. With J of ``Signature(1, n - 1)``, R_{theta,U} J = I - 2 V V^T
    for V the unit vector of the line.
    """
    return rho0(dp_exp(_line_generator(theta, U)))


def line_bundle_exp(theta: float, U: np.ndarray, lam: float) -> Motion:
    """Exponential of the line-bundle generator (-theta e_1 ^ U, lam e_1), read-only.

    It is the motion of ``dp_exp_full`` at v = [lam]: the translation is lam
    (2 sin(theta/2)/theta) times the half-angle vector, with the theta -> 0
    limit lam e_1. U is checked first, then theta, then lam; a value outside
    the input domain raises ``DimensionMismatchError``.
    """
    gen = _line_generator(theta, U)
    lam = check_finite_scalar(lam, "fiber coordinate lam")
    return dp_exp_full(DpElement(gen, np.array([lam]))).motion


# theta, lambda; R row-major; X; the carried line angle theta/2; the fiber (X again)
MOEBIUS_COLUMNS = ("theta", "lambda", "r00", "r01", "r10", "r11", "x0", "x1", "line_angle", "y0", "y1")


def moebius_grid(num_theta: int, num_lambda: int, lambda_max: float) -> list:
    """Sample the Moebius band: the image of the n = 2 line-bundle generators.

    Records cover theta in [0, 2 pi) times lambda in [-lambda_max, lambda_max]
    and carry, in the order of ``MOEBIUS_COLUMNS``: theta, lambda, the
    rotation R row-major, the translation X, the carried line angle theta/2,
    and the fiber (X again). Each record is ``line_bundle_exp(theta, e_2,
    lambda)``, bit for bit, from one call of ``dp_exp_full`` on the stacked
    element of the whole grid. The sizes must be integers from 1 to ``matcore._MAX_DIM``
    and lambda_max must be in the input domain, else
    ``DimensionMismatchError``.
    """
    if not all(_is_dim(k) for k in (num_theta, num_lambda)):
        raise DimensionMismatchError("grid sizes must be integers from 1 to matcore._MAX_DIM")
    lambda_max = check_finite_scalar(lambda_max, "lambda_max")
    grid = (num_theta, num_lambda)
    theta = np.broadcast_to((2.0 * math.pi * np.arange(num_theta) / num_theta)[:, None], grid)
    lam = np.broadcast_to(np.linspace(-lambda_max, lambda_max, num_lambda), grid)
    gen = DpGenerator(1, 1, _line_block(theta, np.array([0.0, 1.0])))
    motion = dp_exp_full(DpElement(gen, lam[..., None])).motion
    R, X = motion.R, motion.X.reshape(-1, 2)
    values = np.column_stack([theta.ravel(), lam.ravel(), R.reshape(-1, 4), X, 0.5 * theta.ravel(), X])
    return [dict(zip(MOEBIUS_COLUMNS, row)) for row in values.tolist()]
