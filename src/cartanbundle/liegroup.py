"""The groups SO(n) and SE(n), their algebras, and closed-form exp/log.

Motions are pairs (R, X) multiplying as (R1 R2, X1 + R1 X2); screws are
pairs (omega, v). exp and log are functions of normal matrices, so each
reads both of its factors off one symmetric or Hermitian ``eigh``:

- exp(omega, v) = (e^omega, Y_omega v). With i omega = U diag(w) U^H,
  e^omega = Re U e^{-iw} U^H and Y_omega = Re U f(w) e^{-iw/2} U^H, where
  f(theta) = 2 sin(theta/2) / theta is the half-angle factor: on each
  turning plane Y_omega turns by theta/2 and scales by f.
- log(R, X) = (L, Y_L^{-1} X), from one ``eigh`` of S = (R + R^T)/2 (see
  ``matcore._rotation_log``). With theta the angle of each eigenvector of
  S, Y_L^{-1} = V diag(cos(theta/2) / f(theta)) V^T - L/2.

Each call validates each input once: the matrix, then the vector.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .config import Tolerances, default_tolerances
from .errors import BranchAmbiguityError, DimensionMismatchError, SingularMapError
from .matcore import _rotation_log, check_skew, check_special_orthogonal


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


def _check_vector(x: np.ndarray, n: int, what: str) -> np.ndarray:
    """x as a float array, checked to be a finite n-vector."""
    x = np.asarray(x, dtype=float)
    if x.shape != (n,) or not np.isfinite(x).all():
        raise DimensionMismatchError(f"{what} must be a finite n-vector")
    return x


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


def _spectrum(omega: np.ndarray) -> tuple:
    """(w, U) with i omega = U diag(w) U^H, for omega checked skew and finite."""
    return np.linalg.eigh(1j * check_skew(omega))


def _apply(U: np.ndarray, d: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Re U diag(d) U^H x."""
    return (U @ (d * (U.conj().T @ x))).real


def so_exp(omega: np.ndarray) -> np.ndarray:
    """Exponential of a skew matrix, Re U e^{-iw} U^H for i omega = U diag(w) U^H."""
    w, U = _spectrum(omega)
    return ((U * np.exp(-1j * w)) @ U.conj().T).real


def _check_branch(theta: np.ndarray, tol: Tolerances) -> None:
    if math.pi - theta.max() <= tol.branch:
        raise BranchAmbiguityError(
            "log branch ambiguity: rotation angle at pi", angle=float(theta.max())
        )


def so_log(
    omega_or_R: np.ndarray, tol: Tolerances | None = None, allow_pi: bool = False
) -> np.ndarray:
    """Principal logarithm of a rotation, angles in (-pi, pi).

    An angle within ``tol.branch`` of pi makes the log non-unique; this
    raises unless ``allow_pi`` explicitly requests the +pi resolution.
    """
    tol = tol or default_tolerances()
    L, _, theta = _rotation_log(check_special_orthogonal(omega_or_R, tol))
    if not allow_pi:
        _check_branch(theta, tol)
    return L


def _half_angle_factor(theta: float) -> float:
    """2 sin(theta/2) / theta, with the analytic limit 1 at theta = 0."""
    if abs(theta) < 1e-4:
        t2 = theta * theta
        return 1.0 - t2 / 24.0 + t2 * t2 / 1920.0
    return 2.0 * math.sin(0.5 * theta) / theta


def _factors(theta: np.ndarray) -> np.ndarray:
    """The half-angle factor of each angle."""
    return np.array([_half_angle_factor(t) for t in theta])


def _inverse_factors(theta: np.ndarray, tol: Tolerances) -> np.ndarray:
    """1 / f of each angle; a factor below ``tol.sing`` raises."""
    f = _factors(theta)
    bad = np.abs(f) < tol.sing
    if bad.any():
        raise SingularMapError("Y_omega singular", angle=float(abs(theta[bad][0])))
    return 1.0 / f


def y_omega(omega: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Translation part Y of exp(omega, v), as a linear map of v.

    On each turning plane of omega, of angle theta, v is scaled by
    2 sin(theta/2)/theta and rotated by theta/2; the kernel passes through.
    """
    w, U = _spectrum(omega)
    return _apply(U, _factors(w) * np.exp(-0.5j * w), _check_vector(v, w.size, "v"))


def y_omega_solve(
    omega: np.ndarray, Y: np.ndarray, tol: Tolerances | None = None
) -> np.ndarray:
    """Inverse of ``y_omega`` in its first argument: v with Y_omega(v) = Y.

    On each turning plane of omega, Y is turned back by theta/2 and divided
    by 2 sin(theta/2)/theta; an angle where that factor is below ``tol.sing``
    (theta near a nonzero multiple of 2 pi) raises ``SingularMapError``.
    """
    tol = tol or default_tolerances()
    w, U = _spectrum(omega)
    d = np.exp(0.5j * w) * _inverse_factors(w, tol)
    return _apply(U, d, _check_vector(Y, w.size, "Y"))


def se_exp(xi: Screw) -> Motion:
    """Group exponential exp(omega, v) = (exp(omega), Y_omega(v)).

    One Hermitian ``eigh`` of i omega gives both parts: an eigenvalue w
    turns by w in e^omega and, in Y_omega, by w/2, scaled by
    2 sin(w/2)/w. omega is checked (skew, finite) before v (a finite
    n-vector).
    """
    w, U = _spectrum(xi.omega)
    _check_vector(xi.v, w.size, "screw vector")
    half = np.exp(-0.5j * w)
    return Motion(((U * half**2) @ U.conj().T).real, _apply(U, _factors(w) * half, xi.v))


def se_log(g: Motion, tol: Tolerances | None = None, allow_pi: bool = False) -> Screw:
    """Principal logarithm on SE(n); branch restrictions as in ``so_log``.

    One ``eigh`` of (R + R^T)/2 gives L = log R, an eigenbasis V and the
    angle theta of each eigenvector; X is pulled back as
    V diag(cos(theta/2) / f(theta)) V^T X - L X / 2. The checks run in the
    order R in SO(n), then X a finite n-vector, then the branch at pi.
    """
    tol = tol or default_tolerances()
    L, V, theta = _rotation_log(check_special_orthogonal(g.R, tol))
    _check_vector(g.X, theta.size, "translation")
    if not allow_pi:
        _check_branch(theta, tol)
    h = np.cos(0.5 * theta) * _inverse_factors(theta, tol)
    return Screw(L, V @ (h * (V.T @ g.X)) - 0.5 * (L @ g.X))
