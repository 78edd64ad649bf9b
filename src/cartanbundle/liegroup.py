"""The groups SO(n) and SE(n), their algebras, and closed-form exp/log.

Motions are pairs (R, X) multiplying as (R1 R2, X1 + R1 X2); screws are
pairs (omega, v). Every exp/log reads both of its factors off one canonical
block form Q blockdiag(B(theta_1), ..., B(theta_k), fixed) Q^T:

- exp(omega, v) = (e^omega, Y_omega v). In the Pi-block form of omega,
  e^omega rotates pair i by theta_i, and Y_omega turns it by theta_i / 2 and
  scales it by the half-angle factor f_i = 2 sin(theta_i/2) / theta_i. Fixed
  coordinates pass through both.
- log(R, X) = (omega, Y_omega^{-1} X). The rotation form of R is already a
  Pi-block form of omega = log R, so X is pulled back through the same Q and
  angles: scale 1/f_i and turn -theta_i / 2.

Each call computes one form (one real Schur decomposition) and validates
each input once: the matrix inside the form, then the vector.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .config import Tolerances, default_tolerances
from .errors import BranchAmbiguityError, DimensionMismatchError, SingularMapError
from .matcore import (
    CanonicalRotationForm,
    canonical_rotation_form,
    check_special_orthogonal,
    skew_canonical_form,
)


@dataclass(frozen=True)
class Motion:
    """Euclidean motion g = (R, X), i.e. x -> R x + X."""

    R: np.ndarray
    X: np.ndarray

    @property
    def n(self) -> int:
        return self.R.shape[0]

    def homogeneous(self) -> np.ndarray:
        """(n+1) x (n+1) block-matrix representation."""
        n = self.n
        H = np.eye(n + 1)
        H[:n, :n] = self.R
        H[:n, n] = self.X
        return H


@dataclass(frozen=True)
class Screw:
    """Lie-algebra element xi = (omega, v) of se(n)."""

    omega: np.ndarray
    v: np.ndarray

    @property
    def n(self) -> int:
        return self.omega.shape[0]

    def matrix(self) -> np.ndarray:
        n = self.n
        M = np.zeros((n + 1, n + 1))
        M[:n, :n] = self.omega
        M[:n, n] = self.v
        return M


def identity_motion(n: int) -> Motion:
    return Motion(np.eye(n), np.zeros(n))


def _check_vector(x: np.ndarray, n: int, what: str) -> None:
    if x.shape != (n,) or not np.all(np.isfinite(x)):
        raise DimensionMismatchError(f"{what} must be a finite n-vector")


def check_motion(g: Motion, tol: Tolerances | None = None) -> Motion:
    check_special_orthogonal(g.R, tol)
    _check_vector(g.X, g.n, "translation")
    return g


def _same_n(a, b):
    if a.n != b.n:
        raise DimensionMismatchError(f"dimension mismatch: {a.n} vs {b.n}")


def se_mul(g1: Motion, g2: Motion) -> Motion:
    _same_n(g1, g2)
    return Motion(g1.R @ g2.R, g1.X + g1.R @ g2.X)


def se_inv(g: Motion) -> Motion:
    return Motion(g.R.T.copy(), -(g.R.T @ g.X))


def se_bracket(xi1: Screw, xi2: Screw) -> Screw:
    _same_n(xi1, xi2)
    return Screw(
        xi1.omega @ xi2.omega - xi2.omega @ xi1.omega,
        xi1.omega @ xi2.v - xi2.omega @ xi1.v,
    )


def so_exp(omega: np.ndarray, tol: Tolerances | None = None) -> np.ndarray:
    """Exponential of a skew matrix via its canonical Pi-block form."""
    form = skew_canonical_form(omega, tol)
    return form.rotation_matrix()


def _check_branch(form: CanonicalRotationForm, tol: Tolerances) -> None:
    for theta in form.angles:
        if abs(abs(theta) - math.pi) <= tol.branch:
            raise BranchAmbiguityError(
                "log branch ambiguity: rotation angle at pi", angle=float(theta)
            )


def so_log(
    omega_or_R: np.ndarray, tol: Tolerances | None = None, allow_pi: bool = False
) -> np.ndarray:
    """Principal logarithm of a rotation, angles in (-pi, pi).

    An angle within ``tol.branch`` of pi makes the log non-unique; this
    raises unless ``allow_pi`` explicitly requests the +pi resolution.
    """
    tol = tol or default_tolerances()
    form = canonical_rotation_form(omega_or_R, tol)
    if not allow_pi:
        _check_branch(form, tol)
    return form.skew_matrix()


def _half_angle_factor(theta: float) -> float:
    """2 sin(theta/2) / theta, with the analytic limit 1 at theta = 0."""
    if abs(theta) < 1e-4:
        t2 = theta * theta
        return 1.0 - t2 / 24.0 + t2 * t2 / 1920.0
    return 2.0 * math.sin(0.5 * theta) / theta


def _turn_pairs(form: CanonicalRotationForm, x: np.ndarray, pairs) -> np.ndarray:
    """Q blockdiag(k_i R(phi_i), I) Q^T x for (k_i, phi_i) in ``pairs``.

    Pair i acts on basis columns 2i, 2i+1 of ``form.Q``; the trailing fixed
    coordinates pass through.
    """
    w = form.Q.T @ x
    for i, (k, phi) in enumerate(pairs):
        c, s = k * math.cos(phi), k * math.sin(phi)
        a, b = w[2 * i], w[2 * i + 1]
        w[2 * i], w[2 * i + 1] = c * a - s * b, s * a + c * b
    return form.Q @ w


def _y_form(form: CanonicalRotationForm, v: np.ndarray) -> np.ndarray:
    """Y_omega v for omega = Q blockdiag(Pi(theta_i), 0) Q^T."""
    return _turn_pairs(form, v, [(_half_angle_factor(t), 0.5 * t) for t in form.angles])


def _y_form_solve(form: CanonicalRotationForm, Y: np.ndarray, tol: Tolerances) -> np.ndarray:
    """The inverse of ``_y_form``: scale 1/f and turn -theta/2 per pair."""
    f = [_half_angle_factor(t) for t in form.angles]
    for theta, fi in zip(form.angles, f):
        if abs(fi) < tol.sing:
            raise SingularMapError("Y_omega singular", angle=float(theta))
    return _turn_pairs(form, Y, [(1.0 / fi, -0.5 * t) for t, fi in zip(form.angles, f)])


def _as_vector(x: np.ndarray, n: int) -> np.ndarray:
    x = np.asarray(x, dtype=float)
    if x.shape != (n,):
        raise DimensionMismatchError("vector dimension does not match omega")
    return x


def y_omega(omega: np.ndarray, v: np.ndarray, tol: Tolerances | None = None) -> np.ndarray:
    """Translation part Y of exp(omega, v), as a linear map of v.

    In the canonical basis of omega, fixed coordinates pass through and each
    rotating pair is scaled by 2 sin(theta/2)/theta and rotated by theta/2.
    """
    form = skew_canonical_form(omega, tol)
    return _y_form(form, _as_vector(v, form.n))


def y_omega_solve(
    omega: np.ndarray, Y: np.ndarray, tol: Tolerances | None = None
) -> np.ndarray:
    """Inverse of ``y_omega`` in its first argument: v with Y_omega(v) = Y.

    In the canonical basis of omega each rotating pair is turned back by
    theta/2 and divided by 2 sin(theta/2)/theta; an angle where that factor
    is below ``tol.sing`` (theta near a nonzero multiple of 2 pi) raises
    ``SingularMapError``.
    """
    tol = tol or default_tolerances()
    form = skew_canonical_form(omega, tol)
    return _y_form_solve(form, _as_vector(Y, form.n), tol)


def se_exp(xi: Screw, tol: Tolerances | None = None) -> Motion:
    """Group exponential exp(omega, v) = (exp(omega), Y_omega(v)).

    One canonical Pi-block form of omega gives both parts: each block of
    angle theta is a planar rotation by theta in e^omega and, in Y_omega, a
    turn by theta/2 scaled by 2 sin(theta/2)/theta. omega is checked (skew,
    finite) before v (a finite n-vector).
    """
    form = skew_canonical_form(xi.omega, tol)
    _check_vector(xi.v, form.n, "screw vector")
    return Motion(form.rotation_matrix(), _y_form(form, xi.v))


def se_log(g: Motion, tol: Tolerances | None = None, allow_pi: bool = False) -> Screw:
    """Principal logarithm on SE(n); branch restrictions as in ``so_log``.

    One canonical rotation form R = Q blockdiag(R(theta_i), I) Q^T is also
    a Pi-block form of omega = log R, so omega is read off it and X is
    pulled back through the same Q and angles. The checks run in the order
    R in SO(n), then X a finite n-vector, then the branch at pi.
    """
    tol = tol or default_tolerances()
    form = canonical_rotation_form(g.R, tol)
    _check_vector(g.X, form.n, "translation")
    if not allow_pi:
        _check_branch(form, tol)
    return Screw(form.skew_matrix(), _y_form_solve(form, g.X, tol))
