"""The groups SO(n) and SE(n), their algebras, and closed-form exp/log.

Motions are pairs (R, X) multiplying as (R1 R2, X1 + R1 X2); screws are
pairs (omega, v). exp and log are functions of normal matrices, so each
reads both of its factors off one real symmetric ``eigh``:

- exp(omega, v) = (e^omega, Y_omega v), from omega^T omega =
  V diag(theta^2) V^T, theta >= 0. Since omega^T omega = -omega^2 commutes
  with omega, e^omega = cos(Theta) + sin(Theta)/Theta omega and
  Y_omega = sin(Theta)/Theta + (1 - cos(Theta))/Theta^2 omega with
  Theta^2 = omega^T omega. With f(theta) = 2 sin(theta/2) / theta the
  half-angle factor, sin(theta)/theta = f cos(theta/2) and
  (1 - cos(theta))/theta^2 = f^2/2: on each turning plane Y_omega turns by
  theta/2 and scales by f. Y_omega^{-1} = V diag(cos(theta/2) / f) V^T -
  omega/2, the pull-back of the log. No complex arithmetic runs.
- log(R, X) = (L, Y_L^{-1} X), from one ``eigh`` of S = (R + R^T)/2 (see
  ``matcore._rotation_log``). With theta the angle of each eigenvector of
  S, Y_L^{-1} = V diag(cos(theta/2) / f(theta)) V^T - L/2.

The half-angle factor is one NumPy expression, sin(h)/h for h = theta/2
and 1 at h = 0 (``_factors``), for one operand and a stack alike. No
series is needed near 0: against a long-double sin(h)/h its relative error
stays below 0.9 eps on angles from 1e-300 to 7 and near 2 pi (0.75 eps
below 1e-4, where a Taylor series would give 0.25 eps), and from 1e-4 up it
equals 2 sin(theta/2)/theta bit for bit.

Accuracy of exp: every factor is an entire function of theta^2, so the
small angles, which ``eigh`` resolves only to eps |omega|^2 absolutely,
cost nothing; but the backward error of the ``eigh`` scales with
|omega|_2^2, not |omega|_2. Against a long-double scaling-and-squaring
exponential, for |omega|_2 <= pi the error stays within 1.4 times that of
a Hermitian ``eigh`` of i omega at n = 4, 8 and 32; at |omega|_2 = 30 it
is 3.5 to 6 times larger (1.8e-13 against 4.4e-14 at n = 32).

Each map validates each input once: the matrix, then the vector. The
logs test R in SO(n) with ``matcore._checked_log``, then X: R in the
domain, then |R^T R - I| and |det R - 1|, each held to
``tol.orth`` max(1, n), as ``check_special_orthogonal`` holds them. Where
that orthogonality residual decides the determinant test
(``matcore._split_decides_det``: at the default tolerances, wherever
|R^T R - I| is below about 5e-10 sqrt(n), as for a rotation computed in
floating point), the sign of det R is read off the ``eigh`` the log
runs anyway, as the parity of its count of eigenvalues below its split,
and no LU runs; elsewhere the LU ``det`` runs first, as the check does.
Both accept the same R and raise the same error. ``_checked_motion``
checks only the shape and domain of a motion's parts, against the n of a
signature where one is given. Group
arithmetic (``se_mul``, ``se_inv``, ``se_bracket``) and the value types
``Motion`` and ``Screw`` take their operands as given.

Every map here takes one operand or a stack (see ``matcore``): ``se_exp``,
``y_omega``, ``y_omega_solve``, ``so_exp``, ``se_log`` and ``so_log`` read
the leading shape of omega or R, and the vector must have it. An element of
a stack comes out bit for bit as its single call, and one that fails raises
that call's error class with its ``index`` in the context. ``se_mul``,
``se_inv``, ``se_bracket``, ``Motion.homogeneous`` and ``Screw.matrix`` read
stacks of motions and screws as they are.

Every (n+1) x (n+1) block matrix [[A, x], [0, c]] is built by one routine,
``_block_matrix``: the homogeneous matrix of a motion (c = 1), the matrix of
a screw (c = 0), and ``bundle.is_fixed_point``'s residual sigma(g) - g
(c = 0).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .config import Tolerances, default_tolerances
from .errors import BranchAmbiguityError, DimensionMismatchError, SingularMapError
from .matcore import (
    _at,
    _checked_log,
    _eigh,
    _fail_at,
    _is_dim,
    _require,
    check_finite_matrix,
    check_finite_vector,
    check_skew,
)


def _block_matrix(A: np.ndarray, x: np.ndarray, corner: float) -> np.ndarray:
    """The (n+1) x (n+1) block matrix [[A, x], [0, corner]] of an n x n A and an n-vector x; or of each of stacks.

    The leading shape is A's; x is assigned into the last column as it is.
    """
    n = A.shape[-1]
    M = np.zeros(A.shape[:-2] + (n + 1, n + 1))
    M[..., :n, :n], M[..., :n, n], M[..., n, n] = A, x, corner
    return M


@dataclass(frozen=True, eq=False)
class Motion:
    """Euclidean motion g = (R, X), i.e. x -> R x + X; ``==`` is identity.

    An unchecked record: its fields are taken as given, and each map that
    reads them checks them.
    """

    R: np.ndarray
    X: np.ndarray

    @property
    def n(self) -> int:
        return self.R.shape[-1]

    def homogeneous(self) -> np.ndarray:
        """(n+1) x (n+1) block-matrix representation [[R, X], [0, 1]]; of each motion if R and X are stacks."""
        return _block_matrix(self.R, self.X, 1.0)


@dataclass(frozen=True, eq=False)
class Screw:
    """Lie-algebra element xi = (omega, v) of se(n); ``==`` is identity.

    An unchecked record: its fields are taken as given, and each map that
    reads them checks them.
    """

    omega: np.ndarray
    v: np.ndarray

    @property
    def n(self) -> int:
        return self.omega.shape[-1]

    def matrix(self) -> np.ndarray:
        """(n+1) x (n+1) block-matrix representation [[omega, v], [0, 0]]; of each screw if omega and v are stacks."""
        return _block_matrix(self.omega, self.v, 0.0)


def identity_motion(n: int) -> Motion:
    """The identity of SE(n); n must be a dimension (``matcore._is_dim``): an integer from 1 to ``_MAX_DIM``."""
    if not _is_dim(n):
        raise DimensionMismatchError("identity motion requires an integer n from 1 to matcore._MAX_DIM", n=n)
    return Motion(np.eye(n), np.zeros(n))


def _checked_motion(g: Motion, n: int, batch: tuple | None = ()) -> tuple:
    """(R, X): the parts of g, checked against the dimension n, R first; or of each motion of stacks.

    R must be an n x n matrix, or a stack of the leading shape ``batch``
    (None: of its own), and X an n-vector or a stack of R's leading shape,
    both in the input domain. Only shape and domain are checked; a map that
    needs R in SO(n) checks it (``_checked_rotation``, or ``_checked_log``
    in the logs) and then X.
    """
    R = check_finite_matrix(g.R, (n, n), "rotation", batch)
    return R, check_finite_vector(g.X, n, "translation", R.shape[:-2])


def _same_n(a, b):
    if a.n != b.n:
        raise DimensionMismatchError(f"dimension mismatch: {a.n} vs {b.n}")


def se_mul(g1: Motion, g2: Motion) -> Motion:
    """g1 g2 = (R1 R2, X1 + R1 X2); of each pair of motions if R and X are stacks."""
    _same_n(g1, g2)
    return Motion(g1.R @ g2.R, g1.X + np.matvec(g1.R, g2.X))


def se_inv(g: Motion) -> Motion:
    """g^{-1} = (R^T, -R^T X); of each motion if R and X are stacks."""
    return Motion(g.R.mT.copy(), -np.matvec(g.R.mT, g.X))


def se_bracket(xi1: Screw, xi2: Screw) -> Screw:
    """[xi1, xi2] = (omega1 omega2 - omega2 omega1, omega1 v2 - omega2 v1); of each pair if they are stacks."""
    _same_n(xi1, xi2)
    return Screw(
        xi1.omega @ xi2.omega - xi2.omega @ xi1.omega,
        np.matvec(xi1.omega, xi2.v) - np.matvec(xi2.omega, xi1.v),
    )


def _spectrum(omega: np.ndarray) -> tuple:
    """(omega, V, theta): omega checked skew and finite, omega^T omega = V diag(theta^2) V^T; or each of a stack.

    An eigenvalue that rounds below zero (the kernel at odd n) gets theta = 0.
    """
    omega = check_skew(omega)
    lam, V = _eigh(omega.mT @ omega)
    return omega, V, np.sqrt(np.maximum(lam, 0.0))


def _rotation(V, theta, sinc, Vw) -> np.ndarray:
    """e^omega = V (cos(theta) . V^T + sinc . V^T omega), each factor scaling rows.

    The sum is laid out row-major, one matrix or each of a stack, so every
    element takes the product of its single call.
    """
    return V @ np.ascontiguousarray(np.cos(theta)[..., :, None] * V.mT + sinc[..., :, None] * Vw)


def so_exp(omega: np.ndarray) -> np.ndarray:
    """Exponential of a skew matrix, the rotation part of ``se_exp``.

    e^omega = cos(Theta) + sin(Theta)/Theta omega with Theta^2 = omega^T omega,
    and sin(theta)/theta = f cos(theta/2) for the half-angle factor f.
    """
    omega, V, theta = _spectrum(omega)
    return _rotation(V, theta, _factors(theta) * np.cos(0.5 * theta), V.mT @ omega)


def _check_branch(theta: np.ndarray, tol: Tolerances) -> None:
    top = theta.max(axis=-1)
    _require(~(math.pi - top <= tol.branch), BranchAmbiguityError,
             "log branch ambiguity: rotation angle at pi", angle=top)


def so_log(
    R: np.ndarray, tol: Tolerances = default_tolerances(), allow_pi: bool = False
) -> np.ndarray:
    """Principal logarithm of a rotation, angles in (-pi, pi).

    R is checked in SO(n) under ``tol.orth`` as ``check_special_orthogonal``
    checks it, and the sign of det R comes from the log's own split where
    the orthogonality residual decides it (``matcore._checked_log``). An
    angle within ``tol.branch`` of pi makes the log non-unique; this
    raises unless ``allow_pi`` explicitly requests the +pi resolution.
    """
    L, _, theta = _checked_log(R, tol)
    if not allow_pi:
        _check_branch(theta, tol)
    return L


def _factors(theta: np.ndarray, sin_h: np.ndarray | None = None) -> np.ndarray:
    """The half-angle factor 2 sin(theta/2) / theta of each angle: sin(h)/h for h = theta/2, and 1 at h = 0.

    z = [h = 0] is added to both sides: (0 + 1)/(0 + 1) at h = 0, and
    adding 0 elsewhere is exact. A caller that already holds sin(h), as
    ``np.sin`` gives it for this h, passes it as ``sin_h``.
    """
    h = 0.5 * theta
    z = h == 0
    return ((np.sin(h) if sin_h is None else sin_h) + z) / (h + z)


def _pull_back(V, theta, f, W, x) -> np.ndarray:
    """Y_W^{-1} x = V (cos(theta/2) / f . V^T x) - W x / 2, for W^T W = V diag(theta^2) V^T.

    f holds the half-angle factors of theta; no factor is checked here.
    """
    return np.matvec(V, (np.cos(0.5 * theta) * (1.0 / f)) * np.matvec(V.mT, x)) - 0.5 * np.matvec(W, x)


def y_omega(omega: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Translation part Y of exp(omega, v), as a linear map of v (see ``se_exp``).

    On each turning plane of omega, of angle theta, v is scaled by
    2 sin(theta/2)/theta and rotated by theta/2; the kernel passes through.
    It is the translation of ``se_exp``, which also forms e^omega: two
    n x n products more than Y v alone needs.
    """
    return se_exp(Screw(omega, v)).X


# The half-angle factor below which Y_omega counts as singular. On the
# principal branch of ``se_log`` every factor is at least 2/pi, so only
# ``y_omega_solve``, whose omega may turn by 2 pi or more, tests it.
_FACTOR_TOL = 1e-9


def y_omega_solve(omega: np.ndarray, Y: np.ndarray) -> np.ndarray:
    """Inverse of ``y_omega`` in its first argument: v with Y_omega(v) = Y.

    On each turning plane of omega, Y is turned back by theta/2 and divided
    by f = 2 sin(theta/2)/theta; an angle where f is below the fixed
    ``_FACTOR_TOL`` (theta near a nonzero multiple of 2 pi) raises
    ``SingularMapError`` with that angle. With
    omega^T omega = V diag(theta^2) V^T this is the pull-back of ``se_log``,
    v = V (cos(theta/2) / f . V^T Y) - omega Y / 2. The checks run in the
    order omega, then Y, then the factor.
    """
    omega, V, theta = _spectrum(omega)
    Y = check_finite_vector(Y, theta.shape[-1], "Y", theta.shape[:-1])
    f = _factors(theta)
    bad = np.abs(f) < _FACTOR_TOL
    i = _fail_at(~bad.any(axis=-1))
    if i is not None:
        raise SingularMapError("Y_omega singular", **_at(i, angle=abs(theta[i][bad[i]][0])))
    return _pull_back(V, theta, f, omega, Y)


def se_exp(xi: Screw) -> Motion:
    """Group exponential exp(omega, v) = (exp(omega), Y_omega(v)).

    One real ``eigh`` of omega^T omega = V diag(theta^2) V^T gives both
    parts, with f the half-angle factor and each product below scaling rows:
    e^omega = V (cos(theta) . V^T + f cos(theta/2) . V^T omega) and
    Y_omega v = V (f cos(theta/2) . V^T v + f^2/2 . V^T omega v), where
    f cos(theta/2) = sin(theta)/theta and f^2/2 = (1 - cos(theta))/theta^2.
    omega is checked (skew, finite) before v (a finite n-vector).
    """
    omega, V, theta = _spectrum(xi.omega)
    v = check_finite_vector(xi.v, theta.shape[-1], "screw vector", theta.shape[:-1])
    f = _factors(theta)
    sinc, Vw = f * np.cos(0.5 * theta), V.mT @ omega
    Y = np.matvec(V, sinc * np.matvec(V.mT, v) + 0.5 * f * f * np.matvec(Vw, v))
    return Motion(_rotation(V, theta, sinc, Vw), Y)


def se_log(g: Motion, tol: Tolerances = default_tolerances(), allow_pi: bool = False) -> Screw:
    """Principal logarithm on SE(n); branch restrictions as in ``so_log``.

    One ``eigh`` of (R + R^T)/2 gives L = log R, an eigenbasis V and the
    angle theta of each eigenvector; X is pulled back as
    V diag(cos(theta/2) / f(theta)) V^T X - L X / 2. The checks run in the
    order R in SO(n) (as in ``so_log``: det R's sign from the split where
    the residual decides it), then X a finite n-vector, then the branch at
    pi. Every angle is in [0, pi], so f is in [2/pi, 1] and the pull-back,
    unlike ``y_omega_solve``, cannot meet a singular factor.
    """
    L, V, theta = _checked_log(g.R, tol)
    X = check_finite_vector(g.X, theta.shape[-1], "translation", theta.shape[:-1])
    if not allow_pi:
        _check_branch(theta, tol)
    return Screw(L, _pull_back(V, theta, _factors(theta), L, X))
