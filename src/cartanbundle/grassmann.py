"""The Grassmannian of p-planes in R^n and its Cartan model in SO(n).

Planes are stored canonically as orthogonal projectors with a cached
orthonormal frame. The Cartan model S_p0 consists of rotations R with R J
a symmetric involution whose (-1)-eigenspace has dimension p, where
J = diag(-I_p, I_q); the correspondence rho0 reads the plane off that
eigenspace.

J is diagonal, so R J, J R J and J X are column, row-and-column and entry
sign flips by the diagonal of J; J is built once per (p, q), read-only. One
private routine checks membership of a rotation already in SO(n): R J
symmetric, R J involutive, and one ``eigh`` of R J giving the (-1)-eigenspace
dimension and its frame. It runs once, when a ``CartanRotation`` or a
``CartanMotion`` is constructed; the instance keeps read-only copies of its
matrices and that frame, so ``rho0``, ``dp_log0``, ``rho`` and
``dp_log_full`` read the frame and check nothing again.
"""

from __future__ import annotations

import math
from dataclasses import InitVar, dataclass, field
from functools import lru_cache

import numpy as np

from .config import Tolerances, default_tolerances
from .errors import (
    CutLocusError,
    DimensionMismatchError,
    NotInCartanModelError,
)
from .matcore import (
    check_finite_matrix,
    check_frame,
    check_special_orthogonal,
    orthonormalize,
    projector,
)


@lru_cache(maxsize=32)
def _sign_arrays(p: int, q: int) -> tuple:
    """(j, J): the diagonal of J = diag(-I_p, I_q) and J itself, read-only.

    Shared by every Signature of the same (p, q); read-only because every
    caller gets the same arrays.
    """
    j = np.concatenate([-np.ones(p), np.ones(q)])
    J = np.diag(j)
    j.flags.writeable = J.flags.writeable = False
    return j, J


@dataclass(frozen=True)
class Signature:
    """Block signature (p, q) with matrix J = diag(-I_p, I_q)."""

    p: int
    q: int

    def __post_init__(self):
        if self.p < 1 or self.q < 1:
            raise DimensionMismatchError("signature requires p >= 1 and q >= 1")

    @property
    def n(self) -> int:
        return self.p + self.q

    @property
    def matrix(self) -> np.ndarray:
        """J, read-only."""
        return _sign_arrays(self.p, self.q)[1]

    @property
    def _signs(self) -> np.ndarray:
        """The diagonal of J, read-only: M * j is M J, j[:, None] * M is J M."""
        return _sign_arrays(self.p, self.q)[0]


@dataclass(frozen=True)
class Plane:
    """A p-dimensional subspace of R^n: projector plus a representative frame."""

    n: int
    p: int
    projector: np.ndarray
    frame: np.ndarray


def plane_from_frame(F: np.ndarray, tol: Tolerances | None = None) -> Plane:
    F = check_frame(F, tol)
    n, p = F.shape
    return Plane(n=n, p=p, projector=projector(F), frame=F)


def plane_from_span(vectors: np.ndarray, tol: Tolerances | None = None) -> Plane:
    """Canonical plane spanned by the (independent) columns of ``vectors``."""
    return plane_from_frame(orthonormalize(vectors, tol), tol)


def coordinate_plane(n: int, p: int) -> Plane:
    """The reference plane spanned by the first p basis vectors."""
    return plane_from_frame(np.eye(n, p))


def plane_equal(a: Plane, b: Plane, tol: Tolerances | None = None) -> bool:
    """Frame-independent equality via projector comparison."""
    tol = tol or default_tolerances()
    if (a.n, a.p) != (b.n, b.p):
        raise DimensionMismatchError(
            f"plane dimension mismatch: ({a.n},{a.p}) vs ({b.n},{b.p})"
        )
    return bool(np.linalg.norm(a.projector - b.projector) <= tol.plane)


def rotate_plane(A: np.ndarray, plane: Plane, tol: Tolerances | None = None) -> Plane:
    """Image of a plane under A in SO(n)."""
    if A.shape != (plane.n, plane.n):
        raise DimensionMismatchError("rotation dimension does not match plane")
    return plane_from_frame(A @ plane.frame, tol)


def sigma0(R: np.ndarray, sig: Signature) -> np.ndarray:
    """The involution sigma0(R) = J R J on SO(n)."""
    if R.shape != (sig.n, sig.n):
        raise DimensionMismatchError("rotation dimension does not match signature")
    j = sig._signs
    return j[:, None] * R * j


def in_Q0(R: np.ndarray, sig: Signature, tol: Tolerances | None = None) -> bool:
    """Membership in Q0 = {R : (R J)^2 = I}."""
    tol = tol or default_tolerances()
    if R.shape != (sig.n, sig.n):
        raise DimensionMismatchError("rotation dimension does not match signature")
    M = R * sig._signs
    return bool(np.linalg.norm(M @ M - np.eye(sig.n)) <= tol.invol)


def twisted_act0(A: np.ndarray, R: np.ndarray, sig: Signature) -> np.ndarray:
    """Twisted conjugation A . R . sigma0(A)^{-1}."""
    if A.shape != R.shape:
        raise DimensionMismatchError("operand dimensions differ")
    j = sig._signs
    return ((A @ R) * j) @ A.T * j


def _read_only(a: np.ndarray) -> np.ndarray:
    """A read-only float copy of ``a``."""
    a = np.array(a, dtype=float)
    a.flags.writeable = False
    return a


@dataclass(frozen=True)
class CartanRotation:
    """A rotation in the Cartan model S_p0, checked once, at construction.

    The constructor (``certify`` is an alias) checks SO(n) and then S_p0.
    The instance keeps a read-only copy of R and the read-only frame of the
    (-1)-eigenspace of R J that the check found; ``dataclasses.replace``
    runs the check again.
    """

    mat: np.ndarray
    sig: Signature
    tol: InitVar[Tolerances | None] = None
    _frame: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self, tol):
        tol = tol or default_tolerances()
        mat = _read_only(check_special_orthogonal(self.mat, tol))
        object.__setattr__(self, "mat", mat)
        object.__setattr__(self, "_frame", _cartan_frame(mat, self.sig, tol))

    @classmethod
    def certify(
        cls, mat: np.ndarray, sig: Signature, tol: Tolerances | None = None
    ) -> "CartanRotation":
        return cls(mat, sig, tol)

    @property
    def n(self) -> int:
        return self.sig.n


def _cartan_frame(mat: np.ndarray, sig: Signature, tol: Tolerances) -> np.ndarray:
    """Frame of the plane of a rotation already checked to lie in SO(n).

    Checks that R J is a symmetric involution whose (-1)-eigenspace has
    dimension p, raising ``NotInCartanModelError`` if not, and returns that
    eigenspace's frame, read-only, from the same ``eigh``.
    """
    n = sig.n
    if mat.shape != (n, n):
        raise DimensionMismatchError("rotation dimension does not match signature")
    S = mat * sig._signs
    if np.linalg.norm(S - S.T) > tol.invol * n:
        raise NotInCartanModelError("R J is not symmetric")
    if np.linalg.norm(S @ S - np.eye(n)) > tol.invol * n:
        raise NotInCartanModelError("R J is not an involution")
    w, V = np.linalg.eigh(S)
    F = V[:, w < 0]
    if F.shape[1] != sig.p:
        raise NotInCartanModelError(
            "not in the Cartan model: wrong eigenspace dimension",
            eigenspace_dim=int(F.shape[1]),
        )
    F.flags.writeable = False
    return F


def _embed_matrix(plane: Plane) -> tuple:
    """(R, sig) with R = (I - 2 P) J for P the projector onto the plane."""
    sig = Signature(plane.p, plane.n - plane.p)
    return (np.eye(plane.n) - 2.0 * plane.projector) * sig._signs, sig


def cartan_embed0(plane: Plane, tol: Tolerances | None = None) -> CartanRotation:
    """Embed a plane into S_p0 as R = (I - 2 P) J, P its projector.

    This is A J A^{-1} J for any A in SO(n) whose leading p columns span the
    plane, so the result depends on the plane only through its projector.
    """
    return CartanRotation.certify(*_embed_matrix(plane), tol)


def rho0(R: CartanRotation, tol: Tolerances | None = None) -> Plane:
    """The plane carried by a Cartan-model rotation: (-1)-eigenspace of R J.

    The frame is the one R kept from its construction check; no membership
    check or eigen decomposition runs here.
    """
    return plane_from_frame(R._frame, tol)


@dataclass(frozen=True)
class DpGenerator:
    """Generator in the (-1)-eigenspace d_p0: omega = [[0, -B^T], [B, 0]]."""

    p: int
    q: int
    B: np.ndarray

    def __post_init__(self):
        if self.B.shape != (self.q, self.p):
            raise DimensionMismatchError(
                f"generator block must be {self.q} x {self.p}, got {self.B.shape}"
            )

    @property
    def n(self) -> int:
        return self.p + self.q

    def embed(self) -> np.ndarray:
        n, p = self.n, self.p
        omega = np.zeros((n, n))
        omega[p:, :p] = self.B
        omega[:p, p:] = -self.B.T
        return omega


def _cs_rotation(V: np.ndarray, s: np.ndarray, U: np.ndarray) -> np.ndarray:
    """exp of [[0, -B^T], [B, 0]] for B = U diag(s) V^T, in cosine-sine form.

    Each principal pair (V_i, U_i) turns by s_i; the kernel of B and the
    complement of the range of B are fixed.
    """
    p, n = V.shape[0], V.shape[0] + U.shape[0]
    c, sn = np.cos(s) - 1.0, np.sin(s)
    R = np.empty((n, n))
    R[:p, :p] = (V * c) @ V.T
    R[:p, p:] = -(V * sn) @ U.T
    R[p:, :p] = (U * sn) @ V.T
    R[p:, p:] = (U * c) @ U.T
    R.flat[:: n + 1] += 1.0
    return R


def _generator_svd(gen: DpGenerator) -> tuple:
    """(V, s, U) from one thin SVD B = U diag(s) V^T of a finite generator block."""
    B = check_finite_matrix(gen.B, "generator block")
    U, s, Vt = np.linalg.svd(B, full_matrices=False)
    return Vt.T, s, U


def dp_exp(gen: DpGenerator, tol: Tolerances | None = None) -> CartanRotation:
    """Exponential of a d_p0 generator, certified to land in S_p0.

    One thin SVD B = U diag(s) V^T gives the rotation in cosine-sine form.
    """
    sig = Signature(gen.p, gen.q)
    return CartanRotation.certify(_cs_rotation(*_generator_svd(gen)), sig, tol)


def principal_angles(a: Plane, b: Plane) -> np.ndarray:
    """Principal angles between two planes, from singular values of Fa^T Fb."""
    if (a.n, a.p) != (b.n, b.p):
        raise DimensionMismatchError("planes must share (n, p)")
    s = np.linalg.svd(a.frame.T @ b.frame, compute_uv=False)
    return np.arccos(np.clip(s, -1.0, 1.0))


def _principal_pairs(F: np.ndarray, tol: Tolerances) -> tuple:
    """(V, s, U) with dp_exp(U diag(s) V^T) = R, for F a frame of rho0(R).

    The plane of exp(omega) is exp(omega/2) applied to the reference plane,
    so s is twice the principal angles phi between rho0(R) and the reference
    plane; V (p x p) and U (q x p) hold the principal pairs. A pair with
    sin(phi) <= tol.sing gets a zero U column. A principal angle at pi/2 is
    the cut locus.
    """
    p = F.shape[1]
    V, c, Wt = np.linalg.svd(F[:p, :])
    phi = np.arccos(np.clip(c, -1.0, 1.0))
    if np.any(phi >= 0.5 * math.pi - tol.branch):
        raise CutLocusError(
            "cut locus: generator not unique", max_principal_angle=float(phi.max())
        )
    sin_phi = np.sin(phi)
    inv_sin = np.divide(1.0, sin_phi, out=np.zeros(p), where=sin_phi > tol.sing)
    return V, 2.0 * phi, (F[p:, :] @ Wt.T) * inv_sin


def dp_log0(R: CartanRotation, tol: Tolerances | None = None) -> DpGenerator:
    """Generator with dp_exp(gen) = R, for planes in generic position."""
    tol = tol or default_tolerances()
    V, s, U = _principal_pairs(rho0(R, tol).frame, tol)
    return DpGenerator(p=R.sig.p, q=R.sig.q, B=(U * s) @ V.T)
