"""Cartan model of the canonical vector bundle C(n,p) inside SE(n).

The involution sigma(R, X) = (J R J, J X) turns SE(n) into a symmetric
space whose Cartan model S_p = {g : sigma(g) = g^{-1}, identity component}
is diffeomorphic, via rho, to the bundle of pairs (plane, vector in the
plane). The twisted conjugation action on S_p transports to the transitive
SE(n) action (A, X) * (pi, Y) = (A pi, A Y + 2 pr_{A pi} X).

J enters only as sign flips of rows, columns and entries. The signature
fixes the shape of every operand: each map that takes a motion reads an
n x n rotation and an n-vector in the input domain of ``matcore``, for the
n of the signature. ``tau``, ``CartanMotion``, ``double_projection`` and
``twisted_act`` (its acting motion a) check the rotation in SO(n)
(``matcore._checked_rotation``) and then the translation; ``sigma``,
``in_Q``, ``is_fixed_point``, ``bundle_act`` and the acted-on motion of
``twisted_act`` are checked for shape and domain only
(``liegroup._checked_motion``). A motion that a caller hands to the public
``CartanMotion`` constructor is checked once, in one pass: SO(n) and a
translation that way, then the shared S_p0 check of grassmann (one
``eigh``), then the sigma residual and the fiber condition. The count of
that ``eigh`` gives the sign of det R wherever the orthogonality residual
decides its size, so no LU runs there
(``grassmann._special_unless_counted``). The instance
keeps read-only copies of R and X and the frame of the plane that the
check found. ``rho`` and ``dp_log_full`` read only that frame and X (the
private ``_X``), never R, and check nothing again.

Three maps land in S_p by the paper's construction, and each also gives the
frame of its plane in closed form: ``tau`` (frame A[:, :p] of g = (A, X),
which is checked to lie in SE(n) on entry), ``rho_inv`` (the frame of the
point's plane) and ``dp_exp_full`` (the first p columns of exp(omega/2),
which also give its translation). Each bounds the residuals of its motion
from those of its input, measured on the way, and rounding. When the bounds
meet the tolerances and the translation the input ceiling
(``grassmann._sure``), the motion is certified by construction and checks
nothing; otherwise it goes through the public check ``_cartan_motion``,
by the fallback that ``grassmann``'s two maps share
(``grassmann._checked_where_unsure``). The inputs
carry the rest of the proof: a ``Plane`` and a ``BundlePoint`` are checked
when constructed, as a ``CartanMotion`` is. ``verify`` passes these outputs
through the public constructor (``tau_properties``, ``rho_bijectivity``,
``dp_full_routes``).

A motion is given by its frame and its translation, so ``rho_inv`` and
``dp_exp_full`` defer their n x n R: each keeps the arrays it would build R
from (the point's projector P for (I - 2 P) J, ``_embed_rotation``; the SVD
parts for ``_cs_rotation``), and the first read of ``motion`` builds R by
that expression, read-only, and caches it in the instance. The desk chains
``rho(rho_inv(b))`` and ``dp_log_full(dp_exp_full(xi))`` build no R. An
output that is not sure has R built by the fallback, for its check, and
its first read returns that R (``grassmann._Deferred``): one build either
way.
``tau`` and the public constructor keep R as they build or check it.

A tolerance is given where a value is first checked from raw arrays:
``CartanMotion``, ``tau`` and ``dp_exp_full`` take ``tol``, as do the
predicates ``in_Q`` and ``is_fixed_point``, ``double_projection`` and
``twisted_act``. A ``BundlePoint`` is checked under its plane's tolerances
and has none of its own. Each map of certified values (``bundle_point``, ``rho``, ``rho_inv``,
``bundle_act``, ``dp_log_full``) reads the tolerances of its operand and
certifies its output under them.

Each condition has one bound, which every test of it reads: the sigma
residual is held to ``tol.invol`` (1 + |X|) by ``in_Q`` and
``CartanMotion`` (``_sigma_holds``), and the part (I - P) Y of a fiber
outside its plane to ``tol.fiber`` (1 + |Y|) by ``bundle_point`` and
``CartanMotion`` (``_fiber_holds``).

The sigma residual |sigma(g) g - I| reuses the S_p0 check instead of
building sigma(g). With S = R J, the rotation block J R J R - I equals
J (S^2 - I) J and the translation block J X + J R J X equals J (X + S X).
J only flips signs, exactly, so both blocks have the norms of S^2 - I,
which the S_p0 check has just computed, and of X + S X, term for term the
same floating-point sums; the residual is bit-identical to building
sigma(g). The last row of the homogeneous residual is exactly zero.

Each map computes one route: the one it returns. The identities that tie
the routes together -- exp(xi) = tau(exp(xi/2)), dp_log_full as the inverse
of dp_exp_full, the closed form of the twisted action, X - A J A^{-1} X as
twice a projection, and the block form of the fixed points -- are checked
by the ``verify`` properties, not on every call.

Every map here takes one operand or a stack (see ``matcore``). A stack of
certified values is one ``BundlePoint``, ``CartanMotion`` or ``DpElement``
whose arrays carry a leading batch shape: n, p and the signature are read
from the trailing axes, and the whole stack shares one ``_tol``. Each map
reads its stack shape from its first operand (the rotation of a motion)
and checks every other operand against it: the translation, the acted-on
motion of ``twisted_act``, the fiber of a point against its plane
(``_fiber``), the v of a ``DpElement`` against its B, the point of
``bundle_act`` against the motion and the dst of ``find_transporter``
against the src (``matcore._stacked_like``). A predicate then gives a
boolean array. An element of a stack comes out bit for bit as its single
call: the closed forms run on the whole stack, and the elements that are
not ``_sure`` of their check go through the public check as one stack.
One that fails raises its single call's error class with its ``index`` in
the context; of two that fail, the raise is the check's on the whole
output stack (``grassmann._checked_where_unsure``).
"""

from __future__ import annotations

import math
from functools import partial

import numpy as np

from dataclasses import InitVar, dataclass, field

from .config import Tolerances, default_tolerances
from .errors import DimensionMismatchError, NotInCartanModelError
from .grassmann import (
    DpGenerator,
    Plane,
    Signature,
    _cartan_frame,
    _checked_where_unsure,
    _cs_frame,
    _cs_rotation,
    _Deferred,
    _dp_generator,
    _embed_bound,
    _embed_rotation,
    _frozen,
    _generator,
    _generator_svd,
    _plane,
    _principal_pairs,
    _read_only,
    _ROUND,
    _special_unless_counted,
    _sure,
    _trusted,
)
from .liegroup import (
    Motion,
    Screw,
    _block_matrix,
    _checked_motion,
    _factors,
)
from .matcore import (
    _checked_rotation,
    _complete_frames,
    _eye,
    _norm,
    _orthogonal,
    _projector,
    _require,
    _stacked_like,
    check_finite_vector,
    check_frame,
)


@dataclass(frozen=True, eq=False)
class BundlePoint:
    """A point (plane, fiber vector) of the canonical vector bundle, checked once, at construction; or a stack.

    The plane is a certified ``Plane``. The fiber must be an n-vector in
    the input domain of ``matcore`` (entries finite, at most 1e150) and in
    the plane: |P Y - Y| is held to the fiber bound, ``_fiber_holds``,
    under the plane's tolerances. The point has no tolerances of its own:
    its ``_tol`` is its plane's. The instance keeps a read-only copy of the
    fiber. The constructor is ``bundle_point``. ``rho`` builds its point
    from a certified motion and checks nothing. ``copy``, ``pickle`` and
    ``dataclasses.replace`` run the check again under the plane's
    tolerances. ``==`` is identity. A stack of points is one
    ``BundlePoint`` of a stacked plane and a fiber of its leading shape.
    """

    plane: Plane
    fiber: np.ndarray
    _tol: Tolerances = field(init=False, repr=False)

    def __post_init__(self):
        self.__dict__.update(bundle_point(self.plane, self.fiber).__dict__)

    def __reduce__(self):
        return bundle_point, (self.plane, self.fiber)

    @property
    def n(self) -> int:
        return self.plane.n


def bundle_point(plane: Plane, fiber: np.ndarray) -> BundlePoint:
    """The certified bundle point (plane, fiber), checked under the plane's tolerances.

    For a stacked plane, the fiber must have its leading shape.
    """
    fiber = _read_only(_fiber(plane.projector, fiber, plane._tol))
    return _trusted(BundlePoint, plane._tol, plane=plane, fiber=fiber)


def _fiber(P: np.ndarray, Y: np.ndarray, tol: Tolerances) -> np.ndarray:
    """Y after the check of ``bundle_point`` against the plane's projector P, or of stacks.

    Y must be an n-vector in the input domain, of P's leading shape, and its
    part off the plane within the fiber bound (``_fiber_holds``).
    """
    Y = check_finite_vector(Y, P.shape[-1], "fiber", P.shape[:-2])
    residual = _norm(np.matvec(P, Y) - Y, 1)
    holds = _fiber_holds(residual, Y, tol)
    if holds is not True:  # a stack, or one fiber off its plane; the context is built only here
        _require(holds, NotInCartanModelError, "fiber vector does not lie in the plane", residual=residual)
    return Y


@dataclass(frozen=True, eq=False)
class CartanMotion:
    """A motion in the Cartan model S_p, checked once, at construction; or a stack of them.

    ``certify``, which the public constructor runs, checks an n x n
    rotation in SO(n) and an n-vector translation in the input domain of
    ``matcore``, for the n of the signature, then S_p0, the sigma
    residual and the fiber condition, each under the one bound that
    ``in_Q0``, ``in_Q`` and ``bundle_point`` also apply. As for a
    ``CartanRotation``, the sign of det R comes from the S_p0 check's
    ``eigh`` wherever the residual decides its size, with no LU, and every
    motion is accepted or raises as with the LU checked first
    (``grassmann._special_unless_counted``). The sigma residual
    comes from the S_p0 check's S = R J and |S^2 - I| as
    hypot(|S^2 - I|, |X + S X|) (see the module docstring); no sigma(g) is
    built. The fiber residual is |(I - P) Y| computed as
    |J Y + R^T Y| / 2, since J Y + R^T Y = 2 J (I - P) Y on S_p. The
    instance keeps read-only copies of R and X and the read-only frame of
    the carried plane that the S_p0 check found. ``tau``, ``rho_inv`` and
    ``dp_exp_full`` build theirs from a motion that lies in S_p by
    construction, with the frame of its plane in closed form, and check
    nothing when their bounds are sure of the check (``_sure``). ``rho_inv``
    and ``dp_exp_full`` keep X and a recipe for R (``_rotation``); the
    first read of ``motion`` builds R from it, or takes the R that the
    fallback check of an unsure output built, read-only, and caches the
    motion, one for every reader, also when threads make that read at once.
    ``copy``, ``deepcopy`` and ``pickle`` of any instance run the public
    check again under the same tolerances, ``dataclasses.replace`` under
    the defaults; each reads ``motion``, as ``repr`` does. ``==`` is
    identity. A stack of motions is one ``CartanMotion`` whose R, X and
    frame carry a leading batch shape; its ``sig`` fixes the trailing axes,
    and the whole stack shares one ``_tol``.
    """

    motion: Motion
    sig: Signature
    tol: InitVar[Tolerances] = default_tolerances()
    _frame: np.ndarray = field(init=False, repr=False)
    _X: np.ndarray = field(init=False, repr=False)
    _tol: Tolerances = field(init=False, repr=False)

    def __post_init__(self, tol):
        self.__dict__.update(self.certify(self.motion, self.sig, tol).__dict__)

    def __reduce__(self):
        return self.certify, (self.motion, self.sig, self._tol)

    def __getattr__(self, name):
        # Only the first read of a deferred motion gets here; setdefault keeps one motion for every reader.
        build = self.__dict__.get("_rotation") if name == "motion" else None
        if build is None:
            raise AttributeError(f"{type(self).__name__!r} object has no attribute {name!r}")
        return self.__dict__.setdefault("motion", Motion(_frozen(build()), self._X))

    @classmethod
    def certify(cls, motion: Motion, sig: Signature, tol: Tolerances = default_tolerances()) -> "CartanMotion":
        motion, frame = _cartan_motion(motion.R, motion.X, sig, tol)
        return _trusted(cls, tol, motion=motion, sig=sig, _frame=frame, _X=motion.X)

    @property
    def n(self) -> int:
        return self.sig.n


def _cartan_motion(R: np.ndarray, X: np.ndarray, sig: Signature, tol: Tolerances) -> tuple:
    """(motion, F): the check of a ``CartanMotion`` (R, X), or of stacks; X must have the leading shape of R.

    The motion holds read-only copies of R and X, and F is the frame of
    the plane that the S_p0 check found. The determinant of R is checked
    as ``grassmann._special_unless_counted`` does, before the translation's
    check.
    """
    motion = Motion(_read_only(R), _read_only(X))
    R, defect, bound = _orthogonal(motion.R, tol, sig.n)
    return motion, _special_unless_counted(R, defect, bound, tol, partial(_in_sp, R, motion.X, sig, tol))[0]


def _in_sp(R: np.ndarray, X: np.ndarray, sig: Signature, tol: Tolerances) -> tuple:
    """(F, w): the checks of ``_cartan_motion`` after SO(n), for R orthogonal, or stacks.

    X is an n-vector in the input domain of R's leading shape; then the
    S_p0 check of R (``_cartan_frame``: its frame F and eigenvalues w), the
    sigma residual and the fiber condition.
    """
    X = check_finite_vector(X, sig.n, "translation", R.shape[:-2])
    F, S, invol, w = _cartan_frame(R, sig, tol)
    residual = _sigma_residual(invol, S, X)
    _require(_sigma_holds(residual, X, tol), NotInCartanModelError, "sigma(g) != g^{-1}", residual=residual)
    # Fiber condition J X = -R^{-1} X, equivalently X in rho0(R).
    fib = 0.5 * _norm(sig._signs * X + np.matvec(R.mT, X), 1)
    _require(_fiber_holds(fib, X, tol), NotInCartanModelError, "translation is not in the carried plane",
             residual=fib)
    return F, w


@dataclass(frozen=True, eq=False)
class DpElement:
    """Element (generator, v) of the (-1)-eigenspace d_p of the involution; ``==`` is identity.

    v must be a p-vector in the input domain; it is kept as a float array,
    as the generator keeps B. A stack of elements is one
    ``DpElement`` of a stacked generator and a v of its B's leading shape,
    and its ``screw`` is a stacked ``Screw``.
    """

    gen: DpGenerator
    v: np.ndarray

    def __post_init__(self):
        v = check_finite_vector(self.v, self.gen.p, "coefficient vector", self.gen.B.shape[:-2])
        object.__setattr__(self, "v", v)

    @property
    def n(self) -> int:
        return self.gen.n

    def screw(self) -> Screw:
        v_full = np.zeros(self.gen.B.shape[:-2] + (self.n,))
        v_full[..., : self.gen.p] = self.v
        return Screw(self.gen.embed(), v_full)


def sigma(g: Motion, sig: Signature) -> Motion:
    """The involution sigma(R, X) = (J R J, J X) on SE(n), of g or of each motion of stacks.

    g is checked against the signature.
    """
    (R, X), j = _checked_motion(g, sig.n, None), sig._signs
    return Motion(j[:, None] * R * j, j * X)


def _sigma_residual(invol: float, S: np.ndarray, X: np.ndarray) -> float:
    """|| sigma(g) g - I || over the homogeneous matrix of g = (R, X), or of each of a stack.

    S = R J and invol = |S^2 - I|; the two blocks of the residual are
    J (S^2 - I) J and J (X + S X), of the same norms.
    """
    return np.hypot(invol, _norm(X + np.matvec(S, X), 1))


def _sigma_holds(residual: float, X: np.ndarray, tol: Tolerances) -> bool:
    """The one bound on the sigma residual of g = (R, X): ``tol.invol`` (1 + |X|)."""
    return residual <= tol.invol * (1.0 + _norm(X, 1))


def _fiber_holds(residual: float, Y: np.ndarray, tol: Tolerances) -> bool:
    """The one bound on |(I - P) Y|, the part of Y off its plane: ``tol.fiber`` (1 + |Y|)."""
    return residual <= tol.fiber * (1.0 + _norm(Y, 1))


def is_fixed_point(g: Motion, sig: Signature, tol: Tolerances = default_tolerances()) -> bool:
    """Whether g is fixed by sigma: |sigma(g) - g| <= ``tol.invol``.

    Fixed points are block-diagonal rotations diag(A, B) with no translation
    in the first p slots; the residual is exactly twice the norm of the
    off-block entries, which ``verify`` checks. It is the norm of the
    homogeneous matrix of sigma(g) - g, built from g's checked parts
    (``liegroup._block_matrix``). For
    stacks of motions, a boolean array: one test per motion.
    """
    (R, X), j = _checked_motion(g, sig.n, None), sig._signs
    fixed = _norm(_block_matrix(j[:, None] * R * j - R, j * X - X, 0.0), 2) <= tol.invol
    return fixed if R.ndim > 2 else bool(fixed)


def in_Q(g: Motion, sig: Signature, tol: Tolerances = default_tolerances()) -> bool:
    """Membership in Q = {g : sigma(g) = g^{-1}}.

    A g of the wrong shape for the signature or outside the input domain raises.
    The bound is the one ``CartanMotion`` applies, ``_sigma_holds``. For
    stacks of motions, a boolean array: one test per motion.
    """
    R, X = _checked_motion(g, sig.n, None)
    S = R * sig._signs
    held = _sigma_holds(_sigma_residual(_norm(S @ S - _eye(sig.n), 2), S, X), X, tol)
    return held if R.ndim > 2 else bool(held)


def twisted_act(a: Motion, g: Motion, sig: Signature, tol: Tolerances = default_tolerances()) -> Motion:
    """Twisted conjugation a . g . sigma(a^{-1}), closed form.

    a = (A, X) is checked to lie in SE(n) under ``tol``, A first, as ``tau``
    checks its motion, since the closed form writes A^{-1} as A^T; g is
    checked for shape and domain. The closed form is
    (A R J A^{-1} J, X + A Y - A R J A^{-1} X); ``verify`` checks it against
    plain group arithmetic. a may be stacks of motions, and g then stacks
    of a's leading shape.
    """
    A = _checked_rotation(a.R, tol, sig.n)[0]
    X = check_finite_vector(a.X, sig.n, "translation", A.shape[:-2])
    (R, Y), j = _checked_motion(g, sig.n, A.shape[:-2]), sig._signs
    core = ((A @ R) * j) @ A.mT
    return Motion(core * j, X + np.matvec(A, Y) - np.matvec(core, X))


def tau(g: Motion, sig: Signature, tol: Tolerances = default_tolerances()) -> CartanMotion:
    """Orbit map tau(g) = g sigma(g^{-1}), landing in S_p.

    g is checked to lie in SE(n) under ``tol``: R n x n and in SO(n) as
    ``check_special_orthogonal`` tests it, then X an n-vector. For
    g = (A, X) the result is (A J A^T J, X - A J A^T X), computed as
    se_mul(g, sigma(se_inv(g))) computes it, product for product, so it is
    bit-identical to that route. It lies in S_p by construction, and the
    frame of its plane is A[:, :p]. With e = |A^T A - I| and S = A J A^T,
    |R^T R - I| and |S^2 - I| are at most (2 + e) e and det R = det(A^T A)
    is within exp(sqrt(n) e) - 1 of 1, all below 4 sqrt(n) e; the sigma and
    fiber residuals come from (I - S^2) X, at most that times |X|. When
    these bounds make the result sure of its check and its translation is
    in the input domain (``_sure``), nothing else is checked; otherwise it
    goes through the public check (``_checked_where_unsure``). The frame is
    then a copy of A[:, :p] where the result is sure, else the frame the
    public check finds. Stacks of motions give a stacked ``CartanMotion``.
    """
    A, e = _checked_rotation(g.R, tol, sig.n)
    X, j = check_finite_vector(g.X, sig.n, "translation", A.shape[:-2]), sig._signs
    R, Y = A @ (j[:, None] * A.mT.copy() * j), X + np.matvec(A, j * -np.matvec(A.mT, X))
    rot, size = 4.0 * math.sqrt(sig.n) * e + sig.n * _ROUND, _norm(Y, 1)
    sure = _sure(tol, rot, rot * _norm(X, 1) / (1.0 + size), Y, size)
    F = _checked_where_unsure(sure, A[..., : sig.p].copy(), _cartan_motion, sig, tol, R, Y)
    return _trusted(CartanMotion, tol, motion=Motion(_frozen(R), _frozen(Y)), sig=sig, _frame=_frozen(F), _X=Y)


def double_projection(
    A: np.ndarray, X: np.ndarray, sig: Signature, tol: Tolerances = default_tolerances()
) -> np.ndarray:
    """X - A J A^{-1} X, which is twice the projection of X onto A.pi0.

    A may be a stack of rotations, and X then a stack of its leading shape.
    """
    A = _checked_rotation(A, tol, sig.n)[0]
    X = check_finite_vector(X, sig.n, "vector", A.shape[:-2])
    return X - np.matvec((A * sig._signs) @ A.mT, X)


def rho(s: CartanMotion) -> BundlePoint:
    """The bundle point (rho0(R), Y) carried by a Cartan-model motion.

    The plane's frame is the one s carries, orthonormal from the ``eigh``
    of its construction check or from the closed form it was built by, and
    Y lies in that plane; no membership or frame check and no eigen
    decomposition runs here, and s's R is not read, so a deferred one stays
    unbuilt.
    """
    return _trusted(BundlePoint, s._tol, plane=_plane(s._frame, s._tol), fiber=s._X)


def rho_inv(b: BundlePoint) -> CartanMotion:
    """Inverse of rho: embed the plane as (I - 2 P) J, keep the fiber as translation.

    The motion lies in S_p by construction, with ``b.plane.frame`` the frame
    of its plane. Its rotation is bounded as ``cartan_embed0``'s; with
    S = I - 2 P, its sigma and fiber residuals are 2 |(I - P) Y| and
    |(I - P) Y|, measured here. When these make the motion sure of its
    check (``_sure``) under the point's tolerances, nothing is checked;
    otherwise it goes through the public check under them
    (``_checked_where_unsure``), and the motion takes the frame that check
    finds. Either way the motion carries the point's tolerances. R is
    deferred: the motion keeps the point's P and builds (I - 2 P) J on the
    first read of ``motion`` (``_embed_rotation``), or in the fallback if
    the motion is not sure. A stacked point gives a stacked motion.
    """
    tol, F, P, Y = b._tol, b.plane.frame, b.plane.projector, b.fiber
    sig, rot = _embed_bound(F)
    R = _Deferred(_embed_rotation, P, sig)
    fib = _norm(np.matvec(P, Y) - Y, 1) / (1.0 + _norm(Y, 1)) + sig.n * _ROUND
    F = _checked_where_unsure(_sure(tol, rot, fib), F, _cartan_motion, sig, tol, R, Y)
    return _trusted(CartanMotion, tol, sig=sig, _frame=F, _X=Y, _rotation=R)


def bundle_act(a: Motion, b: BundlePoint, sig: Signature) -> BundlePoint:
    """The transitive action (A, X) * (pi, Y) = (A pi, A Y + 2 pr_{A pi} X).

    The motion is checked once, against the signature, for shape and domain,
    and the point must have its (n, p), as ``find_transporter`` checks its
    two points. The plane A pi is checked as a frame, as ``rotate_plane``
    checks it, and the new point as ``bundle_point`` checks it, both under
    the point's tolerances, which the result carries. The motion may be
    stacks, and the point then a stacked point of their leading shape.

    A is read only through A pi and A Y, Y in pi, and is not checked in
    SO(n). The frame check of A pi certifies that A maps pi isometrically,
    so an A that does not (2 I) raises ``DegenerateSpanError``. An A that
    does acts as every rotation that agrees with it on pi (one exists, since
    p < n): a reflection A acts as H A, for H the reflection across a
    hyperplane that contains A pi.
    """
    R, X = _checked_motion(a, sig.n, None)
    if (b.n, b.plane.p) != (sig.n, sig.p):
        raise DimensionMismatchError("bundle point (n, p) does not match the signature")
    _stacked_like(b.fiber, 1, R.shape[:-2], "bundle point")
    tol = b._tol
    F = _frozen(check_frame(R @ b.plane.frame, tol))
    P = _projector(F)
    Y = _fiber(P, np.matvec(R, b.fiber) + 2.0 * np.matvec(P, X), tol)
    return _trusted(BundlePoint, tol, plane=_plane(F, tol, P), fiber=_frozen(Y))


def find_transporter(src: BundlePoint, dst: BundlePoint) -> Motion:
    """One motion carrying src to dst under the bundle action.

    A maps the source frame onto the destination frame; the translation
    X = (dst.fiber - A src.fiber) / 2 lies in the destination plane, so the
    doubled projection reproduces the fiber exactly. Both frames were
    checked when their planes were constructed; they are completed to SO(n)
    by one stacked complete QR and one stacked ``det``, each exactly as
    ``complete_to_special_orthogonal`` completes it. For stacked points, dst
    must have the leading shape of src, and each pair gets its motion.
    """
    if (src.n, src.plane.p) != (dst.n, dst.plane.p):
        raise DimensionMismatchError("bundle points must share (n, p)")
    _stacked_like(dst.fiber, 1, src.fiber.shape[:-1], "bundle point")
    C = _complete_frames(np.array([dst.plane.frame, src.plane.frame]))  # one copy, without np.stack's Python wrapper
    A = C[0] @ C[1].mT
    return Motion(A, 0.5 * (dst.fiber - np.matvec(A, src.fiber)))


def dp_exp_full(
    xi: DpElement, tol: Tolerances = default_tolerances()
) -> CartanMotion:
    """Exponential of a d_p element, in closed form and in S_p by construction.

    One thin SVD B = U diag(s) V^T gives exp(xi). The rotation is the
    cosine-sine form (``_cs_rotation``), deferred: the motion keeps V, s
    and U and builds it on the first read of ``motion``, or in the fallback
    if the motion is not sure. The frame F of its plane is the
    cosine-sine form at half the angles t = s/2 (``_cs_frame``): exp(omega/2)
    turns each principal pair by t_i. Y_omega turns it so too and also
    scales it by f_i = sin(t_i)/t_i, so the translation comes from that
    frame, Y_omega (v, 0) = F (v + V ((f - 1) V^T v)). cos t and sin t are
    computed once, and the factor reuses sin t (``_factors``), the same
    value it would compute. The residuals are rounding only, so nothing is
    checked unless ``tol`` is below that or the translation leaves the
    input domain (``_sure``, given |X|); then the motion goes through the
    public check (``_checked_where_unsure``). ``verify`` passes
    these motions through the public constructor and checks the doubling
    identity exp(xi) = tau(exp(xi/2)). The motion's frame is the closed-form
    one where it is sure, else the frame the public check finds; X comes
    from the closed-form frame either way. A stacked element gives a
    stacked motion.
    """
    sig, v = xi.gen._sig, xi.v
    V, s, U = _generator_svd(xi.gen.B)
    t = 0.5 * s
    sin_t = np.sin(t)
    F = _cs_frame(V, np.cos(t), sin_t, U)
    X = np.matvec(F, v + np.matvec(V, (_factors(s, sin_t) - 1.0) * np.matvec(V.mT, v)))
    R, rot = _Deferred(_cs_rotation, V, s, U), sig.n * _ROUND
    F = _checked_where_unsure(_sure(tol, rot, rot, X, _norm(X, 1)), F, _cartan_motion, sig, tol, R, X)
    return _trusted(CartanMotion, tol, sig=sig, _frame=_frozen(F), _X=_frozen(X), _rotation=R)


def dp_log_full(s: CartanMotion) -> DpElement:
    """Inverse of dp_exp_full on generic Cartan-model motions.

    The frame of the plane, kept by s from its construction check, fixes
    the principal pairs (V_i, U_i) and angles s_i = 2 phi_i; no membership
    check or eigen decomposition runs here, and s's R is not read. The fiber is pulled back pair
    by pair, turned back by phi_i and divided by the half-angle factor
    f_i = sin(phi_i)/phi_i, which lies in (2/pi, 1] inside the cut locus.
    cos phi is computed once, and the turn and the factor reuse the sines
    of phi that ``_principal_pairs`` computed. The cut-locus test, which
    ``dp_log0`` shares, reads the tolerances s carries. The generator is
    built from s's signature and a block computed here, with no check
    (``grassmann._dp_generator``); v is checked as every ``DpElement``'s,
    since it can leave the input domain. The fiber of s lies in its plane
    by its certificate, so v is not mapped forward again; ``verify`` checks
    the round trip (``bundle.dp_full_routes``). A stacked motion gives a
    stacked element.
    """
    sig, X = s.sig, s._X
    V, angles, U, phi, sin_phi = _principal_pairs(s._frame, s._tol)
    top, bottom = X[..., : sig.p], X[..., sig.p :]
    a, f = np.matvec(V.mT, top), _factors(angles, sin_phi)
    w = (np.cos(phi) * a + sin_phi * np.matvec(U.mT, bottom)) / f
    return DpElement(gen=_dp_generator(_generator(V, angles, U), sig), v=top + np.matvec(V, w - a))
