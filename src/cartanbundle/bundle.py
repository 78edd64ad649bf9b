"""Cartan model of the canonical vector bundle C(n,p) inside SE(n).

The involution sigma(R, X) = (J R J, J X) turns SE(n) into a symmetric
space whose Cartan model S_p = {g : sigma(g) = g^{-1}, identity component}
is diffeomorphic, via rho, to the bundle of pairs (plane, vector in the
plane). The twisted conjugation action on S_p transports to the transitive
SE(n) action (A, X) * (pi, Y) = (A pi, A Y + 2 pr_{A pi} X).

J enters only as sign flips of rows, columns and entries. A motion in S_p is
checked once, when its ``CartanMotion`` is constructed: SO(n) and a finite
translation, then the shared S_p0 check of grassmann (one ``eigh``), then
the sigma residual and the fiber condition. The instance keeps read-only
copies of R and X and the frame of the plane that the check found, so
``rho`` and ``dp_log_full`` check nothing again. The residual of sigma(g) g
against the identity is computed from the rotation and translation blocks;
the last row of the homogeneous residual is exactly zero, so no
(n+1) x (n+1) matrix is built.
"""

from __future__ import annotations

import math

import numpy as np

from dataclasses import InitVar, dataclass, field

from .config import Tolerances, default_tolerances
from .errors import (
    DimensionMismatchError,
    NearSingularIsomorphismError,
    NotInCartanModelError,
    NumericalFaultError,
)
from .grassmann import (
    DpGenerator,
    Plane,
    Signature,
    _cartan_frame,
    _cs_rotation,
    _embed_matrix,
    _generator_svd,
    _principal_pairs,
    _read_only,
    plane_from_frame,
    rotate_plane,
)
from .liegroup import (
    Motion,
    Screw,
    _half_angle_factor,
    check_motion,
    se_inv,
    se_mul,
)
from .matcore import check_special_orthogonal, complete_to_special_orthogonal


@dataclass(frozen=True)
class BundlePoint:
    """A point (plane, fiber vector) of the canonical vector bundle."""

    plane: Plane
    fiber: np.ndarray

    @property
    def n(self) -> int:
        return self.plane.n


def bundle_point(
    plane: Plane, fiber: np.ndarray, tol: Tolerances | None = None
) -> BundlePoint:
    """Validated bundle point: the fiber vector must lie in the plane."""
    tol = tol or default_tolerances()
    fiber = np.asarray(fiber, dtype=float)
    if fiber.shape != (plane.n,) or not np.all(np.isfinite(fiber)):
        raise DimensionMismatchError("fiber must be a finite n-vector")
    residual = np.linalg.norm(plane.projector @ fiber - fiber)
    if residual > tol.fiber * (1.0 + np.linalg.norm(fiber)):
        raise NotInCartanModelError(
            "fiber vector does not lie in the plane", residual=float(residual)
        )
    return BundlePoint(plane=plane, fiber=fiber)


@dataclass(frozen=True)
class CartanMotion:
    """A motion in the Cartan model S_p, checked once, at construction.

    The constructor (``certify`` is an alias) checks SO(n) and a finite
    translation, then S_p0, the sigma residual and the fiber condition. The
    instance keeps read-only copies of R and X and the read-only frame of
    the carried plane that the S_p0 check found; ``dataclasses.replace``
    runs the check again.
    """

    motion: Motion
    sig: Signature
    tol: InitVar[Tolerances | None] = None
    _frame: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self, tol):
        tol = tol or default_tolerances()
        sig, R, X = self.sig, self.motion.R, self.motion.X
        motion = check_motion(Motion(_read_only(R), _read_only(X)), tol)
        # The S_p0 check first compares the dimension with the signature.
        object.__setattr__(self, "_frame", _cartan_frame(motion.R, sig, tol))
        residual = _sigma_residual(motion, sig)
        scale = 1.0 + np.linalg.norm(motion.X)
        if residual > tol.invol * sig.n * scale:
            raise NotInCartanModelError("sigma(g) != g^{-1}", residual=residual)
        # Fiber condition J Y = -R^{-1} Y, equivalently Y in rho0(R).
        Y = motion.X
        fib = np.linalg.norm(sig._signs * Y + motion.R.T @ Y)
        if fib > tol.invol * sig.n * scale:
            raise NotInCartanModelError(
                "translation is not in the carried plane", residual=float(fib)
            )
        object.__setattr__(self, "motion", motion)

    @classmethod
    def certify(
        cls, motion: Motion, sig: Signature, tol: Tolerances | None = None
    ) -> "CartanMotion":
        return cls(motion, sig, tol)

    @property
    def n(self) -> int:
        return self.sig.n


@dataclass(frozen=True)
class DpElement:
    """Element (generator, v) of the (-1)-eigenspace d_p of the involution."""

    gen: DpGenerator
    v: np.ndarray

    def __post_init__(self):
        if self.v.shape != (self.gen.p,):
            raise DimensionMismatchError(
                f"coefficient vector must have length {self.gen.p}"
            )

    @property
    def n(self) -> int:
        return self.gen.n

    def screw(self) -> Screw:
        v_full = np.zeros(self.n)
        v_full[: self.gen.p] = self.v
        return Screw(self.gen.embed(), v_full)


def sigma(g: Motion, sig: Signature) -> Motion:
    """The involution sigma(R, X) = (J R J, J X) on SE(n)."""
    if g.n != sig.n:
        raise DimensionMismatchError("motion dimension does not match signature")
    j = sig._signs
    return Motion(j[:, None] * g.R * j, j * g.X)


def _sigma_residual(g: Motion, sig: Signature) -> float:
    """|| sigma(g) g - I || over the homogeneous matrix, from its two blocks."""
    h = sigma(g, sig)
    return math.hypot(
        np.linalg.norm(h.R @ g.R - np.eye(sig.n)), np.linalg.norm(h.X + h.R @ g.X)
    )


def _check_finite(g: Motion) -> None:
    """Raise ``DimensionMismatchError`` unless both blocks of g are finite."""
    if not (np.all(np.isfinite(g.R)) and np.all(np.isfinite(g.X))):
        raise DimensionMismatchError("motion has non-finite entries")


def is_fixed_point(g: Motion, sig: Signature, tol: Tolerances | None = None) -> bool:
    """Whether g is fixed by sigma, cross-checked against the block structure.

    Fixed points are block-diagonal rotations diag(A, B) with no translation
    in the first p slots. The sigma-comparison residual is exactly twice the
    structural residual; the two routes are computed independently and must
    agree.
    """
    tol = tol or default_tolerances()
    _check_finite(g)
    p = sig.p
    r_sigma = np.linalg.norm(sigma(g, sig).homogeneous() - g.homogeneous())
    off = np.sqrt(
        np.linalg.norm(g.R[:p, p:]) ** 2
        + np.linalg.norm(g.R[p:, :p]) ** 2
        + np.linalg.norm(g.X[:p]) ** 2
    )
    if not abs(r_sigma - 2.0 * off) <= 1e-12 * (1.0 + r_sigma):
        raise NumericalFaultError(
            "fixed-point tests disagree", sigma_residual=float(r_sigma)
        )
    return bool(r_sigma <= tol.invol)


def in_Q(g: Motion, sig: Signature, tol: Tolerances | None = None) -> bool:
    """Membership in Q = {g : sigma(g) = g^{-1}}."""
    tol = tol or default_tolerances()
    scale = 1.0 + np.linalg.norm(g.X)
    return bool(_sigma_residual(g, sig) <= tol.invol * scale)


def twisted_act(a: Motion, g: Motion, sig: Signature) -> Motion:
    """Twisted conjugation a . g . sigma(a^{-1}), closed form.

    The closed form (A R J A^{-1} J, X + A Y - A R J A^{-1} X) is asserted
    against plain group arithmetic.
    """
    if a.n != g.n or a.n != sig.n:
        raise DimensionMismatchError("operand dimensions differ")
    _check_finite(a)
    _check_finite(g)
    j = sig._signs
    A, X = a.R, a.X
    R, Y = g.R, g.X
    core = ((A @ R) * j) @ A.T
    closed = Motion(core * j, X + A @ Y - core @ X)
    generic = se_mul(se_mul(a, g), sigma(se_inv(a), sig))
    scale = 1.0 + np.linalg.norm(X) + np.linalg.norm(Y)
    gap = np.linalg.norm(closed.homogeneous() - generic.homogeneous())
    if not gap <= 1e-11 * sig.n * scale:
        raise NumericalFaultError("twisted action routes disagree")
    return closed


def tau(g: Motion, sig: Signature, tol: Tolerances | None = None) -> CartanMotion:
    """Orbit map tau(g) = g sigma(g^{-1}), landing in S_p."""
    m = se_mul(g, sigma(se_inv(g), sig))
    return CartanMotion.certify(m, sig, tol)


def double_projection(
    A: np.ndarray, X: np.ndarray, sig: Signature, tol: Tolerances | None = None
) -> np.ndarray:
    """X - A J A^{-1} X, asserted equal to twice the projection onto A.pi0."""
    tol = tol or default_tolerances()
    A = check_special_orthogonal(A, tol)
    X = np.asarray(X, dtype=float)
    if A.shape != (sig.n, sig.n) or X.shape != (sig.n,):
        raise DimensionMismatchError("operand dimensions differ")
    if not np.all(np.isfinite(X)):
        raise DimensionMismatchError("vector has non-finite entries")
    D = X - (A * sig._signs) @ A.T @ X
    F = A[:, : sig.p]
    ref = 2.0 * (F @ (F.T @ X))
    if not np.linalg.norm(D - ref) <= 1e-10 * (1.0 + np.linalg.norm(X)):
        raise NumericalFaultError("projection identity violated")
    return D


def rho(s: CartanMotion, tol: Tolerances | None = None) -> BundlePoint:
    """The bundle point (rho0(R), Y) carried by a Cartan-model motion.

    The plane's frame is the one s kept from its construction check; no
    membership check or eigen decomposition runs here. The fiber Y must lie
    in that plane.
    """
    tol = tol or default_tolerances()
    return bundle_point(plane_from_frame(s._frame, tol), s.motion.X, tol)


def rho_inv(b: BundlePoint, tol: Tolerances | None = None) -> CartanMotion:
    """Inverse of rho: embed the plane as (I - 2 P) J, keep the fiber as translation."""
    R, sig = _embed_matrix(b.plane)
    return CartanMotion.certify(Motion(R, b.fiber), sig, tol)


def bundle_act(
    a: Motion, b: BundlePoint, sig: Signature, tol: Tolerances | None = None
) -> BundlePoint:
    """The transitive action (A, X) * (pi, Y) = (A pi, A Y + 2 pr_{A pi} X)."""
    tol = tol or default_tolerances()
    if a.n != b.n or a.n != sig.n:
        raise DimensionMismatchError("operand dimensions differ")
    plane = rotate_plane(a.R, b.plane, tol)
    fiber = a.R @ b.fiber + 2.0 * (plane.projector @ a.X)
    return bundle_point(plane, fiber, tol)


def find_transporter(
    src: BundlePoint, dst: BundlePoint, tol: Tolerances | None = None
) -> Motion:
    """One motion carrying src to dst under the bundle action.

    A maps the source frame onto the destination frame; the translation
    X = (dst.fiber - A src.fiber) / 2 lies in the destination plane, so the
    doubled projection reproduces the fiber exactly.
    """
    tol = tol or default_tolerances()
    if (src.n, src.plane.p) != (dst.n, dst.plane.p):
        raise DimensionMismatchError("bundle points must share (n, p)")
    A = complete_to_special_orthogonal(dst.plane.frame, tol) @ \
        complete_to_special_orthogonal(src.plane.frame, tol).T
    X = 0.5 * (dst.fiber - A @ src.fiber)
    return Motion(A, X)


def _dp_translation(
    V: np.ndarray, s: np.ndarray, U: np.ndarray, v: np.ndarray
) -> np.ndarray:
    """Y_omega applied to (v, 0) for omega the embedding of B = U diag(s) V^T.

    Y_omega turns each principal pair (V_i, U_i) by s_i/2 and scales it by
    f_i = 2 sin(s_i/2)/s_i; the kernel of B passes through unchanged.
    """
    f = np.array([_half_angle_factor(x) for x in s])
    a = V.T @ v
    top = v + V @ ((f * np.cos(0.5 * s) - 1.0) * a)
    return np.concatenate([top, U @ (f * np.sin(0.5 * s) * a)])


def _dp_motion(V, s, U, v) -> Motion:
    return Motion(_cs_rotation(V, s, U), _dp_translation(V, s, U, v))


def dp_exp_full(
    xi: DpElement, tol: Tolerances | None = None
) -> CartanMotion:
    """Exponential of a d_p element, cross-checked against the tau route.

    One thin SVD B = U diag(s) V^T gives exp(xi) in closed form, and
    exp(xi/2) from s/2 and v/2. exp(xi) must equal tau(exp(xi/2)); both are
    computed and compared, which checks the closed form's doubling identity.
    """
    tol = tol or default_tolerances()
    sig = Signature(xi.gen.p, xi.gen.q)
    V, s, U = _generator_svd(xi.gen)
    g = _dp_motion(V, s, U, xi.v)
    via_tau = tau(_dp_motion(V, 0.5 * s, U, 0.5 * xi.v), sig, tol).motion
    gap = math.hypot(np.linalg.norm(g.R - via_tau.R), np.linalg.norm(g.X - via_tau.X))
    if not gap <= 1e-10 * sig.n * (1.0 + np.linalg.norm(g.X)):
        raise NumericalFaultError("exp and tau routes disagree")
    return CartanMotion.certify(g, sig, tol)


def dp_log_full(s: CartanMotion, tol: Tolerances | None = None) -> DpElement:
    """Inverse of dp_exp_full on generic Cartan-model motions.

    The frame of the plane, kept by s from its construction check, fixes
    the principal pairs (V_i, U_i) and angles s_i; no membership check or
    eigen decomposition runs here. The fiber is pulled back pair by pair,
    dividing by the half-angle factor f_i = 2 sin(s_i/2)/s_i, which lies in
    (2/pi, 1] inside the cut locus. A certified fiber can still lie outside
    the image, since the construction bound is looser; a residual check
    rejects it.
    """
    tol = tol or default_tolerances()
    p = s.sig.p
    V, angles, U = _principal_pairs(plane_from_frame(s._frame, tol).frame, tol)
    X = s.motion.X
    top = V.T @ X[:p]
    f = np.array([_half_angle_factor(x) for x in angles])
    w = (np.cos(0.5 * angles) * top + np.sin(0.5 * angles) * (U.T @ X[p:])) / f
    v = X[:p] + V @ (w - top)
    residual = np.linalg.norm(_dp_translation(V, angles, U, v) - X)
    if not residual <= 1e-8 * (1.0 + np.linalg.norm(X)):
        raise NearSingularIsomorphismError(
            "restricted system residual too large", residual=float(residual)
        )
    return DpElement(gen=DpGenerator(p=p, q=s.sig.q, B=(U * angles) @ V.T), v=v)
