"""Lines (p = 1): planar rotations, the half-angle correspondence, the
line-bundle exponential, and Moebius-band sampling for n = 2.

A line is a ``Plane`` with p = 1: G(n, 1) is the Grassmannian at p = 1, and
C(n, 1) is its tautological line bundle (the Moebius band at n = 2). So each
map here is a map of ``grassmann`` or ``bundle`` at the signature
(1, n - 1), for the generator whose q x 1 block is B = theta U[1:]: the
rotation by theta in the plane of e_1 and a unit direction U orthogonal to
e_1. The rotation is ``dp_exp`` of it, its line ``rho0`` of that, and the
line-bundle exponential ``dp_exp_full``, each from one SVD of B; the
Moebius grid is one call of ``line_bundle_exp`` on the whole grid.

The line maps take one direction U or a stack of them, and read the stack
shape once, from U (checked first, by ``unit_direction``). For one U, the
angle theta and the fiber coordinate lam are real scalars and pass
``matcore.check_finite_scalar``; for a stack, each is an array of U's
leading shape, checked per element as an array entry is, and an element
that fails raises its single call's error class with its ``index``. Each
element comes out bit for bit as its single call."""

from __future__ import annotations

import math

import numpy as np

from .bundle import DpElement, dp_exp_full
from .errors import DimensionMismatchError
from .grassmann import DpGenerator, Plane, dp_exp, rho0
from .liegroup import Motion
from .matcore import _in_domain, _is_dim, _norm, _real, _require, check_finite_scalar, check_finite_vector

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


def _per_line(x, lead: tuple, name: str):
    """x, an angle or a fiber coordinate, checked as the directions' leading shape ``lead`` asks.

    For one direction (``lead`` is ()), x is a real scalar; for a stack, an
    array of shape ``lead``, each element checked as an array entry is.
    """
    if not lead:
        return check_finite_scalar(x, name)
    x = _real(x, name)
    if x.shape != lead:
        raise DimensionMismatchError(f"{name} must have the directions' leading shape {lead}, got shape {x.shape}")
    return _in_domain(x, name, 0)


def _line_generator(theta, U: np.ndarray) -> DpGenerator:
    """The generator of the rotation by theta in the plane of e_1 and U; U is checked first, then theta.

    For a stack of directions, one generator per direction, as one stack.
    """
    U = unit_direction(U)
    return DpGenerator(1, U.shape[-1] - 1, _line_block(_per_line(theta, U.shape[:-1], "rotation angle"), U))


def rotation_in_plane(theta: float | np.ndarray, U: np.ndarray) -> np.ndarray:
    """Rotation by theta in the plane of e_1 and U: exp(-theta e_1 ^ U), read-only.

    Sends e_1 to cos(theta) e_1 + sin(theta) U and fixes the orthogonal
    complement of span(e_1, U). It is ``dp_exp`` of the generator with
    B = theta U[1:] at the signature (1, n - 1).
    """
    return dp_exp(_line_generator(theta, U)).mat


def half_angle_line(theta: float | np.ndarray, U: np.ndarray) -> Plane:
    """The line carried by R_{theta,U}: [cos(theta/2) e_1 + sin(theta/2) U].

    It is ``rho0`` of ``dp_exp``, whose frame is that half-angle vector in
    closed form. With J of ``Signature(1, n - 1)``, R_{theta,U} J = I - 2 V V^T
    for V the unit vector of the line.
    """
    return rho0(dp_exp(_line_generator(theta, U)))


def line_bundle_exp(theta: float | np.ndarray, U: np.ndarray, lam: float | np.ndarray) -> Motion:
    """Exponential of the line-bundle generator (-theta e_1 ^ U, lam e_1), read-only.

    It is the motion of ``dp_exp_full`` at v = [lam]: the translation is lam
    (2 sin(theta/2)/theta) times the half-angle vector, with the theta -> 0
    limit lam e_1. U is checked first, then theta, then lam; a value outside
    the input domain raises ``DimensionMismatchError``.
    """
    gen = _line_generator(theta, U)
    lam = _per_line(lam, gen.B.shape[:-2], "fiber coordinate lam")
    return dp_exp_full(DpElement(gen, np.asarray(lam)[..., None])).motion


# theta, lambda; R row-major; X; the carried line angle theta/2; the fiber (X again)
MOEBIUS_COLUMNS = ("theta", "lambda", "r00", "r01", "r10", "r11", "x0", "x1", "line_angle", "y0", "y1")


def moebius_grid(num_theta: int, num_lambda: int, lambda_max: float) -> list:
    """Sample the Moebius band: the image of the n = 2 line-bundle generators.

    Records cover theta in [0, 2 pi) times lambda in [-lambda_max, lambda_max]
    and carry, in the order of ``MOEBIUS_COLUMNS``: theta, lambda, the
    rotation R row-major, the translation X, the carried line angle theta/2,
    and the fiber (X again). Each record is ``line_bundle_exp(theta, e_2,
    lambda)``, bit for bit, from one call of it on the grid. The sizes must
    be integers from 1 to ``matcore._MAX_DIM`` and lambda_max must be in the
    input domain, else ``DimensionMismatchError``.
    """
    if not all(_is_dim(k) for k in (num_theta, num_lambda)):
        raise DimensionMismatchError("grid sizes must be integers from 1 to matcore._MAX_DIM")
    lambda_max = check_finite_scalar(lambda_max, "lambda_max")
    grid = (num_theta, num_lambda)
    theta = np.broadcast_to((2.0 * math.pi * np.arange(num_theta) / num_theta)[:, None], grid)
    lam = np.broadcast_to(np.linspace(-lambda_max, lambda_max, num_lambda), grid)
    motion = line_bundle_exp(theta, np.broadcast_to([0.0, 1.0], grid + (2,)), lam)
    R, X = motion.R, motion.X.reshape(-1, 2)
    values = np.column_stack([theta.ravel(), lam.ravel(), R.reshape(-1, 4), X, 0.5 * theta.ravel(), X])
    return [dict(zip(MOEBIUS_COLUMNS, row)) for row in values.tolist()]
