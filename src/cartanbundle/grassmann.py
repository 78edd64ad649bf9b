"""The Grassmannian of p-planes in R^n and its Cartan model in SO(n).

Planes are stored canonically as orthogonal projectors with a cached
orthonormal frame. The Cartan model S_p0 consists of rotations R with R J
a symmetric involution whose (-1)-eigenspace has dimension p, where
J = diag(-I_p, I_q); the correspondence rho0 reads the plane off that
eigenspace.

The signature (p, q) fixes every operand's shape. ``Signature`` is the one
check of (n, p): p and q are integers of at least 1, so 1 <= p < n. Each
map checks its operands against it with the ``matcore`` validators: a
rotation n x n (``sigma0``, ``in_Q0``, ``twisted_act0``,
``CartanRotation``; ``rotate_plane`` takes n from the plane), and in SO(n)
where the map inverts it (the A of ``twisted_act0``) or certifies it
(``CartanRotation``). A ``Plane`` takes n and p from its frame and checks
them as a ``Signature``.

A tolerance is given where a value is first checked from raw arrays: the
constructors (``plane_from_frame``, ``plane_from_span``, ``CartanRotation``,
``dp_exp``), the predicates (``in_Q0``, ``plane_equal``) and ``twisted_act0``
take ``tol``. A certified value keeps the tolerances of its check, and each
map of certified values (``cartan_embed0``, ``rho0``, ``dp_log0``,
``rotate_plane``) reads its operand's and certifies its output under them.

J is diagonal, so R J, J R J and J X are column, row-and-column and entry
sign flips by the diagonal of J, which is built once per (p, q),
read-only; J itself is built only if ``Signature.matrix`` is read. One
private routine checks membership of an orthogonal rotation: S = R J
a symmetric involution, with |S - S^T| and |S^2 - I| each at most
``tol.invol`` (``matcore._symmetric_involution``, the test ``in_Q0`` also
reads), and one ``eigh`` of S giving the (-1)-eigenspace dimension and its
frame. Exactly p negative eigenvalues also give det R > 0, since
det((I - 2 P) J) = (-1)^rank P (-1)^p; wherever the orthogonality residual
decides the size of det R and the eigenvalues its sign, that count stands
for SO(n)'s determinant check, and no LU runs
(``_special_unless_counted``). The routine runs once, when a caller hands
a matrix to the public ``CartanRotation`` or ``CartanMotion``
constructor; the instance keeps
read-only copies of its matrices and that frame, so ``rho0``, ``dp_log0``,
``rho`` and ``dp_log_full`` read the frame and check nothing again. The
eigenvectors of ``eigh`` are orthonormal, so the plane built from that frame
skips the frame check. The routine also returns S and |S^2 - I|: the sigma
residual of a motion (R, X) has blocks J (S^2 - I) J and J (X + S X), so the
``CartanMotion`` check finishes from them in the same pass.

Five maps land in the Cartan model by construction and give the frame of
their plane in closed form: here ``cartan_embed0``, R = (I - 2 P) J with
the frame of the plane, and ``dp_exp``, whose frame is the first p columns
of exp(omega/2) (``_cs_frame``); in ``bundle``, ``rho_inv``, ``tau`` and
``dp_exp_full``. Each bounds the residuals of its output from the residuals
of its input, measured on the way, and rounding (``_ROUND``), and asks
``_sure`` whether those bounds meet the tolerances and its translation, if
any, the input ceiling. All five then call one fallback,
``_checked_where_unsure``: an output that is sure keeps its closed-form
frame and checks nothing (``_trusted``); the others go through their
public check (``_cartan_rotation``, or ``bundle._cartan_motion``), the
unsure elements of a stack as one stack, which accepts or raises as for
the same matrices from a caller. A ``Plane`` is checked once, when
constructed (``plane_from_frame`` or the constructor), and keeps F F^T as
its projector; the frames that are orthonormal by construction skip that
check (``_plane``).

Every map here takes one operand or a stack (see ``matcore``). A stack of
certified values is one ``Plane``, ``CartanRotation`` or ``DpGenerator``
whose arrays carry a leading batch shape: n, p and the signature are read
from the trailing axes, and the whole stack shares one ``_tol``. Each map
reads its stack shape from its first operand and checks every other
operand against it: the R of ``twisted_act0`` must have the leading shape
of its A, the plane of ``rotate_plane`` that of its A, and the second plane
of ``plane_equal`` and ``principal_angles`` that of the first
(``matcore._stacked_like``). Each map is its own kernel: the closed forms
(``_embed_bound``, ``_embed_rotation``, ``_generator_svd``,
``_cs_rotation``, ``_cs_frame``), the S_p0 check (``_cartan_rotation``,
``_cartan_frame``), the principal pairs (``_principal_pairs``,
``_angle_pairs``) and the fallback
``_checked_where_unsure`` run on whole stacks; where elements differ in
their count of small principal angles, each count runs as one stack
(``matcore._groups``). An element of a stack comes out bit for bit as its
single call, and one that fails raises that call's error class with its
``index`` in the context. The fallback replaces the frames of a stack's
unsure elements in a read-only copy, so the frames it was given stay as
they were.
"""

from __future__ import annotations

import math
from dataclasses import InitVar, dataclass, field
from functools import lru_cache, partial

import numpy as np

from .config import Tolerances, default_tolerances
from .errors import (
    CutLocusError,
    DimensionMismatchError,
    GeometryError,
    NotInCartanModelError,
)
from .matcore import (
    _MAX_ABS,
    _MAX_DIM,
    _at,
    _checked_rotation,
    _count_decides_det,
    _eigh,
    _eye,
    _fail_at,
    _groups,
    _is_int,
    _norm,
    _orthogonal,
    _projector,
    _real,
    _require,
    _special,
    _stacked_like,
    _svd,
    _symmetric_involution,
    check_finite_matrix,
    check_frame,
    orthonormalize,
)


@lru_cache(maxsize=32)
def _sign_diagonal(p: int, q: int) -> np.ndarray:
    """j, the diagonal of J = diag(-I_p, I_q), read-only.

    Shared by every Signature of the same (p, q); read-only because every
    caller gets the same array. Every map reads J as j alone.
    """
    return _frozen(np.concatenate([-np.ones(p), np.ones(q)]))


@lru_cache(maxsize=32)
def _sign_matrix(p: int, q: int) -> np.ndarray:
    """J = diag(-I_p, I_q) itself, read-only and shared as ``_sign_diagonal`` is; built on its first read."""
    return _frozen(np.diag(_sign_diagonal(p, q)))


@dataclass(frozen=True)
class Signature:
    """Block signature (p, q) with matrix J = diag(-I_p, I_q), n = p + q.

    The one check of (n, p): p and q must be integers (``matcore._is_int``)
    of at least 1 with n at most ``matcore._MAX_DIM``, else
    ``DimensionMismatchError``. ``DpGenerator`` checks its (p, q) by it too.
    """

    p: int
    q: int

    def __post_init__(self):
        p, q = self.p, self.q
        # q is bounded by _MAX_DIM - p, so no sum of NumPy integers can wrap
        if not (_is_int(p) and _is_int(q) and 1 <= p <= _MAX_DIM and 1 <= q <= _MAX_DIM - p):
            raise DimensionMismatchError(
                "signature requires integers p >= 1 and q >= 1 with p + q a dimension", p=self.p, q=self.q
            )

    @property
    def n(self) -> int:
        return self.p + self.q

    @property
    def matrix(self) -> np.ndarray:
        """J, read-only: one n x n array per (p, q), built on its first read.

        The maps read only its diagonal (``_signs``); two ``verify`` rows
        and callers read J.
        """
        return _sign_matrix(self.p, self.q)

    @property
    def _signs(self) -> np.ndarray:
        """The diagonal of J, read-only: M * j is M J, j[:, None] * M is J M."""
        return _sign_diagonal(self.p, self.q)


def _trusted(cls, tol: Tolerances, **fields):
    """An instance of a certified class from parts that pass its check by construction.

    Nothing is checked: the caller vouches for every field and passes only
    read-only arrays that no caller of the library can write to. ``tol`` is
    kept as the instance's ``_tol``, so a copy reruns the public check under
    it. The fields go into the instance's ``__dict__`` in one update, past
    the frozen dataclass's ``__setattr__``.
    """
    obj = object.__new__(cls)
    obj.__dict__.update(fields, _tol=tol)
    return obj


def _read_only(a: np.ndarray) -> np.ndarray:
    """A read-only float copy of ``a``."""
    a = np.array(a, dtype=float)
    a.flags.writeable = False
    return a


def _frozen(a: np.ndarray) -> np.ndarray:
    """``a`` itself, made read-only; for an array just computed, which no caller holds."""
    a.flags.writeable = False
    return a


# Rounding allowance per dimension. tools/round_sweep.py measures what each
# residual of the five by-construction outputs needs beyond the part of its
# bound measured from the input: over 30000 random cases (seeds 0 to 9) at
# n <= 32, with |B|_2 up to 3 pi and translations up to 1e6, the worst was
# 5.96 n eps, the orthogonality residual of dp_exp at n = 3.
_ROUND = 16 * np.finfo(float).eps


def _sure(tol: Tolerances, rot: float, fib: float | None = None, X: np.ndarray | None = None,
          size: float | None = None) -> bool:
    """Whether a by-construction output passes its public check under ``tol``.

    ``rot`` bounds the output's orthogonality, determinant, symmetry and
    involution residuals. A motion also gives ``fib``, which bounds its
    fiber residual per 1 + |Y|; its sigma residual is then at most
    (rot + 2 fib)(1 + |Y|). Each is held to its tolerance without the
    factor n. The bounds are first order in the inputs' residuals, so rot
    must also stay below 1e-6. A translation ``X`` computed from inputs in
    the domain can leave it (tau's 2 P X reaches 2 |X|, dp_exp_full's
    Y_omega v reaches sqrt(p) |v|), so it must also be within the
    ``matcore`` ceiling, as the public check requires. The caller gives
    ``size``, the 2-norm of X (of each element of a stack), which it has
    computed anyway. No entry exceeds the norm, so where every norm is at
    most half the ceiling (the half covers the rounding of the norm) the
    ceiling holds with no pass over X; otherwise each entry is tested, as
    the public check tests it, and the answer is the same. A NaN fails. For
    bounds over a stack, the answer is per element; an output that is not
    sure goes to ``_checked_where_unsure``.
    """
    sure = (rot <= tol.orth) & (rot <= tol.invol) & (rot <= 1e-6)
    if fib is not None:
        sure = sure & (fib <= tol.fiber) & (rot + 2.0 * fib <= tol.invol)
    if X is None:
        return sure
    fits = size <= 0.5 * _MAX_ABS  # a bool for one norm, else an array; False for a NaN
    if fits is True or fits is not False and fits.all():
        return sure
    return sure & (np.abs(X).max(axis=-1) <= _MAX_ABS)


def _checked_where_unsure(sure, F: np.ndarray, check, sig: Signature, tol: Tolerances, *parts) -> np.ndarray:
    """F, the closed-form frame of a by-construction output, where ``sure``; elsewhere the checked frame.

    ``check`` is the public check, ``_cartan_rotation`` on R or
    ``bundle._cartan_motion`` on (R, X), given as ``parts``. R may be given
    as the function that builds it (``rho_inv`` and ``dp_exp_full`` defer
    their R as a ``_Deferred``), which is called only if an element is
    unsure, and keeps what it built for the first read of ``motion``. ``sure`` is one
    answer per element, or one for the whole stack. A single output that is
    sure returns F at once; one that is not takes the frame of
    ``check(*parts, sig, tol)``, which accepts or raises as for the same
    value from a caller. The unsure elements of a stack go through one
    check, as one stack, and their frames replace theirs in a read-only
    copy of F, so the frames it was given stay as they were. A raise gets
    the element's ``index`` in the whole stack. The sure elements pass every
    condition, so the raise is the one that check gives on the whole output
    stack: the first failing condition in the check's order, and its first
    failing element in C order. This is the one place where the five maps
    that land in the Cartan model by construction fall back to the check.
    """
    if F.ndim == 2:
        return F if sure else check(*_built(parts), sig, tol)[1]
    unsure = ~np.broadcast_to(sure, F.shape[:-2])
    if not unsure.any():
        return F
    try:
        found = check(*(a[unsure] for a in _built(parts)), sig, tol)[1]
    except GeometryError as exc:
        if "index" in exc.context:
            exc.context.update(_at(tuple(int(k) for k in np.argwhere(unsure)[exc.context["index"]])))
        raise
    F = F.copy()
    F[unsure] = found
    return _frozen(F)


def _built(parts: tuple) -> tuple:
    """``parts`` with R, the first, built if it was given as the function that builds it."""
    return (parts[0]() if callable(parts[0]) else parts[0],) + parts[1:]


class _Deferred(partial):
    """``partial(build, *args)`` that builds once: its first call keeps the value, and every later call returns it.

    ``rho_inv`` and ``dp_exp_full`` defer their R as one, so the fallback
    (``_checked_where_unsure``) and the first read of ``motion`` share one
    build. Two first calls at once may each build; each value is the same
    expression of the same arrays.
    """

    __slots__ = ("_value",)

    def __call__(self):
        try:
            return self._value
        except AttributeError:
            self._value = value = super().__call__()
            return value


@dataclass(frozen=True, eq=False)
class Plane:
    """A p-dimensional subspace of R^n: projector plus a representative frame; or a stack of them.

    ``Plane(frame)`` is ``plane_from_frame(frame)``: the frame is checked
    once, finite and orthonormal within ``tol.orth`` n (``check_frame``),
    and n, p (checked as a ``Signature``) and the projector F F^T are
    derived from it. A stack of planes is one ``Plane`` whose frame and
    projector carry a leading batch shape: n and p are read from the
    frame's trailing axes, and the whole stack shares one ``_tol``. The
    instance keeps read-only copies of frame and projector, and the
    tolerances of the check, which every map of the plane reuses. ``plane_from_frame`` checks under its ``tol``; the
    constructor under the defaults. Planes whose frame is orthonormal by
    construction (``rho0``, ``rho``, whose frames come from ``eigh`` or a
    closed form) skip the check. ``copy`` and ``pickle`` run the check
    again under the tolerances of the original, ``dataclasses.replace``
    under the defaults. ``==`` is identity; ``plane_equal`` compares planes.
    """

    n: int = field(init=False)
    p: int = field(init=False)
    projector: np.ndarray = field(init=False)
    frame: np.ndarray
    _tol: Tolerances = field(init=False, repr=False)

    def __post_init__(self):
        self.__dict__.update(plane_from_frame(self.frame).__dict__)

    def __reduce__(self):
        return plane_from_frame, (self.frame, self._tol)


def plane_from_frame(F: np.ndarray, tol: Tolerances = default_tolerances()) -> Plane:
    """The plane of a frame, checked orthonormal under ``tol``; it keeps a read-only copy.

    The frame's (n, p) is checked as a ``Signature``, so 1 <= p < n. A stack
    of frames gives one stacked ``Plane``.
    """
    F = check_frame(F, tol)
    Signature(F.shape[-1], F.shape[-2] - F.shape[-1])
    return _plane(_read_only(F), tol)


def _plane(F: np.ndarray, tol: Tolerances, P: np.ndarray | None = None) -> Plane:
    """The plane of a read-only frame already known to be orthonormal, or of a stack; nothing is checked.

    P is its projector F F^T, if the caller has computed it.
    """
    n, p = F.shape[-2:]
    return _trusted(Plane, tol, n=n, p=p, projector=_frozen(_projector(F) if P is None else P), frame=F)


def plane_from_span(vectors: np.ndarray, tol: Tolerances = default_tolerances()) -> Plane:
    """Canonical plane spanned by the (independent) columns of ``vectors``.

    Independence is ``orthonormalize``'s, to its fixed cutoff; ``tol`` checks
    the frame and is the plane's.
    """
    return plane_from_frame(orthonormalize(vectors), tol)


def coordinate_plane(n: int, p: int) -> Plane:
    """The reference plane spanned by the first p basis vectors; (n, p) is checked as a ``Signature``.

    n and p are checked to be integers before n - p is formed.
    """
    if not (_is_int(n) and _is_int(p)):
        raise DimensionMismatchError(f"coordinate plane dimensions ({n!r}, {p!r}) must be integers")
    Signature(p, n - p)
    return plane_from_frame(np.eye(n, p))


def plane_equal(a: Plane, b: Plane, tol: Tolerances = default_tolerances()) -> bool:
    """Frame-independent equality via projector comparison; for stacks, one bool per pair.

    b must have the (n, p) and the leading shape of a.
    """
    if (a.n, a.p) != (b.n, b.p):
        raise DimensionMismatchError(
            f"plane dimension mismatch: ({a.n},{a.p}) vs ({b.n},{b.p})"
        )
    _stacked_like(b.frame, 2, a.frame.shape[:-2], "plane")
    return _norm(a.projector - b.projector, 2) <= tol.plane


def rotate_plane(A: np.ndarray, plane: Plane) -> Plane:
    """Image of a plane under A in SO(n), checked under the plane's tolerances; A must be n x n for its n.

    A is read only through A pi and is not checked in SO(n). The frame check
    of A pi certifies that A maps pi isometrically, so an A that does not
    (2 I) raises ``DegenerateSpanError``; one that does gives the image under
    every rotation that agrees with it on pi (for a reflection A, under H A,
    H the reflection across a hyperplane that contains A pi). A may be a
    stack, and the plane then a stack of its leading shape.
    """
    F, tol = plane.frame, plane._tol
    A = check_finite_matrix(A, (F.shape[-2], F.shape[-2]), "rotation", None)
    _stacked_like(F, 2, A.shape[:-2], "plane")
    return _plane(_frozen(check_frame(A @ F, tol)), tol)


def sigma0(R: np.ndarray, sig: Signature) -> np.ndarray:
    """The involution sigma0(R) = J R J on SO(n); R must be n x n and in the input domain, or a stack of them."""
    R, j = check_finite_matrix(R, (sig.n, sig.n), "rotation", None), sig._signs
    return j[:, None] * R * j


def in_Q0(R: np.ndarray, sig: Signature, tol: Tolerances = default_tolerances()) -> bool:
    """Membership in Q0 = {R : R J a symmetric involution}.

    An R that is not n x n or lies outside the input domain raises. The test
    is the S_p0 check's, ``matcore._symmetric_involution``. A stack of
    rotations gives a boolean array, one test per rotation.
    """
    R = check_finite_matrix(R, (sig.n, sig.n), "rotation", None)
    return _symmetric_involution(R * sig._signs, tol)[0]


def twisted_act0(
    A: np.ndarray, R: np.ndarray, sig: Signature, tol: Tolerances = default_tolerances()
) -> np.ndarray:
    """Twisted conjugation A . R . sigma0(A)^{-1}.

    A is checked to lie in SO(n) under ``tol``, since the closed form writes
    A^{-1} as A^T; R must be n x n, in the input domain. A may be a stack,
    and R then a stack of its leading shape.
    """
    A = _checked_rotation(A, tol, sig.n)[0]
    R, j = check_finite_matrix(R, (sig.n, sig.n), "rotation", A.shape[:-2]), sig._signs
    return ((A @ R) * j) @ A.mT * j


@dataclass(frozen=True, eq=False)
class CartanRotation:
    """A rotation in the Cartan model S_p0, checked once, at construction; or a stack of them.

    ``certify``, which the constructor runs, checks that R is n x n for
    the signature and lies in SO(n), and then S_p0. The sign of det R is
    read off the count of the S_p0 check's ``eigh`` wherever the
    orthogonality residual decides its size, with no LU; every R is
    accepted or raises as with the LU (``_special_unless_counted``). A
    stack of rotations
    is one ``CartanRotation`` whose matrix and frame carry a leading batch
    shape; its ``sig`` fixes the trailing axes, and the whole stack shares
    one ``_tol``.
    The instance keeps a read-only copy of R and the read-only frame of the
    (-1)-eigenspace of R J that the check found. ``cartan_embed0`` and
    ``dp_exp`` build theirs from a rotation that lies in S_p0 by
    construction, with the frame of its plane in closed form, and check
    nothing when their bounds are sure of the check (``_sure``); otherwise
    the rotation goes through ``_cartan_rotation`` (``_checked_where_unsure``).
    ``copy`` and ``pickle`` of any instance run the check again under the
    same tolerances, ``dataclasses.replace`` under the defaults. ``==`` is
    identity.
    """

    mat: np.ndarray
    sig: Signature
    tol: InitVar[Tolerances] = default_tolerances()
    _frame: np.ndarray = field(init=False, repr=False)
    _tol: Tolerances = field(init=False, repr=False)

    def __post_init__(self, tol):
        self.__dict__.update(self.certify(self.mat, self.sig, tol).__dict__)

    def __reduce__(self):
        return self.certify, (self.mat, self.sig, self._tol)

    @classmethod
    def certify(cls, mat: np.ndarray, sig: Signature, tol: Tolerances = default_tolerances()) -> "CartanRotation":
        mat, frame = _cartan_rotation(mat, sig, tol)
        return _trusted(cls, tol, mat=mat, sig=sig, _frame=frame)

    @property
    def n(self) -> int:
        return self.sig.n


def _cartan_rotation(R: np.ndarray, sig: Signature, tol: Tolerances) -> tuple:
    """(R, F): the check of a ``CartanRotation``, for R or a stack.

    R, read-only, is checked n x n for sig and in SO(n), then in S_p0; F is
    the frame of its plane that the S_p0 check found. The determinant is
    checked as ``_special_unless_counted`` does.
    """
    R, defect, bound = _orthogonal(R, tol, sig.n)
    R = _read_only(R)
    return R, _special_unless_counted(R, defect, bound, tol, partial(_cartan_frame, R, sig, tol))[0]


def _special_unless_counted(R: np.ndarray, defect, bound: float, tol: Tolerances, check) -> tuple:
    """check(): the checks of a Cartan certificate that follow SO(n), for R that has passed ``_orthogonal``.

    SO(n) ends with |det R - 1| <= ``bound``, an LU ``det``
    (``matcore._special``). On S_p0 that test is redundant where the
    residual decides the size of det R and the S_p0 check's ``eigh`` its
    sign (``matcore._count_decides_det``, on w, the last value ``check``
    returns): there no LU runs. Elsewhere the LU runs after ``check``
    passes, and whenever ``check`` raises, it runs first, so that a
    determinant that fails raises before the later check's error: each
    error is the one that checking det R first gives, with its ``index``.
    """
    try:
        out = check()
    except GeometryError:
        _special(R, bound)
        raise
    if not _count_decides_det(defect, bound, out[-1], tol.invol):
        _special(R, bound)
    return out


def _cartan_frame(mat: np.ndarray, sig: Signature, tol: Tolerances) -> tuple:
    """(F, S, |S^2 - I|, w) for a rotation R already checked to be orthogonal, n x n for sig.

    Checks that S = R J is a symmetric involution (``_symmetric_involution``)
    whose (-1)-eigenspace has dimension p, raising ``NotInCartanModelError``
    if not. F is that eigenspace's frame, read-only, from the same ``eigh``:
    its leading p columns, as ``eigh`` sorts the eigenvalues w ascending. S
    and the involution residual are returned for the sigma residual of a
    motion, and w for the sign of det R (``_special_unless_counted``). A
    stack of rotations is checked as one stack.
    """
    S = mat * sig._signs
    _, i, defect, invol = _symmetric_involution(S, tol)
    if i is not None:
        raise NotInCartanModelError(f"R J is {defect}", **_at(i))
    w, V = _eigh(S)
    i = _fail_at((w[..., sig.p - 1] < 0) & (w[..., sig.p] >= 0))  # exactly p negative, w ascending
    if i is not None:
        raise NotInCartanModelError("not in the Cartan model: wrong eigenspace dimension",
                                    **_at(i, eigenspace_dim=np.count_nonzero(w[i] < 0)))
    F = V[..., : sig.p].copy()
    F.flags.writeable = False
    return F, S, invol, w


@lru_cache(maxsize=32)
def _signature(p: int, q: int) -> Signature:
    """The ``Signature`` (p, q), built once for each (p, q) read off a frame's shape."""
    return Signature(p, q)


def _embed_bound(F: np.ndarray) -> tuple:
    """(sig, rot) of R = (I - 2 P) J for P = F F^T the projector of a plane's frame F, or for each of a stack.

    ``rot`` bounds the residuals of R for ``_sure``. With E = F^T F - I and
    e = |E|, S = R J = I - 2 P has S^2 - I = 4 F E F^T, so |R^T R - I| and
    |S^2 - I| are at most 4 (1 + e) e, and det R is the product of
    1 + 2 lambda over the eigenvalues lambda of E, within
    exp(2 sqrt(p) e) - 1 of 1. Both are below 4 sqrt(n) e while that is
    below 1e-6; the rest is rounding.
    """
    n, p = F.shape[-2:]
    sig = _signature(p, n - p)
    e = _norm(F.mT @ F - _eye(p), 2)
    return sig, 4.0 * math.sqrt(n) * e + n * _ROUND


def _embed_rotation(P: np.ndarray, sig: Signature) -> np.ndarray:
    """R = (I - 2 P) J for a plane's projector P, or for each of a stack."""
    return (_eye(sig.n) - 2.0 * P) * sig._signs


def cartan_embed0(plane: Plane) -> CartanRotation:
    """Embed a plane into S_p0 as R = (I - 2 P) J, P its projector.

    This is A J A^{-1} J for any A in SO(n) whose leading p columns span the
    plane, so the result depends on the plane only through its projector.
    R lies in S_p0 by construction, with ``plane.frame`` the frame of its
    (-1)-eigenspace. When the orthonormality residual of that frame makes R
    sure of its check (``_sure``) under the plane's tolerances, nothing is
    checked; otherwise R goes through the public check under them
    (``_checked_where_unsure``). A stacked plane gives a stacked rotation.
    """
    tol, (sig, rot) = plane._tol, _embed_bound(plane.frame)
    R = _embed_rotation(plane.projector, sig)
    F = _checked_where_unsure(_sure(tol, rot), plane.frame, _cartan_rotation, sig, tol, R)
    return _trusted(CartanRotation, tol, mat=_frozen(R), sig=sig, _frame=F)


def rho0(R: CartanRotation) -> Plane:
    """The plane carried by a Cartan-model rotation: (-1)-eigenspace of R J.

    The frame is the one R carries, orthonormal from the ``eigh`` of its
    construction check or from the closed form it was built by; no
    membership or frame check and no eigen decomposition runs here.
    """
    return _plane(R._frame, R._tol)


@dataclass(frozen=True, eq=False)
class DpGenerator:
    """Generator in the (-1)-eigenspace d_p0: omega = [[0, -B^T], [B, 0]]; ``==`` is identity.

    p and q are checked as a ``Signature``, which the generator keeps, and
    B must have a real numeric dtype (``matcore._real``) and shape (q, p);
    it is kept as a float array. A stack of generators is one
    ``DpGenerator`` whose B has a leading batch shape before (q, p). Its
    entries are checked where it is used (``dp_exp``, ``dp_exp_full``).
    """

    p: int
    q: int
    B: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "_sig", Signature(self.p, self.q))
        object.__setattr__(self, "B", _block(self.B, self._sig))

    @property
    def n(self) -> int:
        return self.p + self.q

    def embed(self) -> np.ndarray:
        return _embedded(self.B)


def _dp_generator(B: np.ndarray, sig: Signature) -> DpGenerator:
    """The ``DpGenerator`` of a q x p float block B for sig, or a stack; nothing is checked.

    For a B just computed from a certified value of that signature: the
    fields are those of ``DpGenerator(sig.p, sig.q, B)``, with sig itself
    kept, and B kept as it is, as the constructor keeps a float array.
    """
    gen = object.__new__(DpGenerator)
    gen.__dict__.update(p=sig.p, q=sig.q, B=B, _sig=sig)
    return gen


def _block(B: np.ndarray, sig: Signature) -> np.ndarray:
    """B as a float array, checked as ``DpGenerator`` checks it: real numeric dtype, q x p for sig, or a stack."""
    B = _real(B, "generator block")
    if B.shape[-2:] != (sig.q, sig.p):
        raise DimensionMismatchError(f"generator block must be {sig.q} x {sig.p}, got {B.shape}")
    return B


def _embedded(B: np.ndarray) -> np.ndarray:
    """omega = [[0, -B^T], [B, 0]] for a q x p block B, or for each of a stack."""
    q, p = B.shape[-2:]
    omega = np.zeros(B.shape[:-2] + (p + q, p + q))
    omega[..., p:, :p] = B
    omega[..., :p, p:] = -B.mT
    return omega


def _plus_identity(M: np.ndarray) -> np.ndarray:
    """M + I in place, for a square M just computed, or a stack of them; returns M."""
    n = M.shape[-1]
    M.reshape(M.shape[:-2] + (n * n,))[..., :: n + 1] += 1.0
    return M


def _cs_rotation(V: np.ndarray, s: np.ndarray, U: np.ndarray) -> np.ndarray:
    """exp of [[0, -B^T], [B, 0]] for B = U diag(s) V^T, in cosine-sine form; or of each of a stack.

    Each principal pair (V_i, U_i) turns by s_i; the kernel of B and the
    complement of the range of B are fixed. The first p columns are
    ``_cs_frame(V, cos s, sin s, U)``; the last q are
    [-V diag(sin s) U^T ; I_q + U diag(cos s - 1) U^T].
    """
    cos_s, sin_s = np.cos(s), np.sin(s)
    right = [-(V * sin_s[..., None, :]) @ U.mT, _plus_identity((U * (cos_s[..., None, :] - 1.0)) @ U.mT)]
    return np.concatenate([_cs_frame(V, cos_s, sin_s, U), np.concatenate(right, axis=-2)], axis=-1)


def _cs_frame(V: np.ndarray, cos_t: np.ndarray, sin_t: np.ndarray, U: np.ndarray) -> np.ndarray:
    """The first p columns of ``_cs_rotation(V, t, U)``, given cos t and sin t; or of each of a stack.

    They are [I_p + V diag(cos t - 1) V^T ; U diag(sin t) V^T], and
    ``_cs_rotation`` builds its own first p columns here. The plane of
    exp(omega) is exp(omega/2) applied to the reference plane, so with
    t = s/2 this is an orthonormal frame of the plane of
    ``_cs_rotation(V, s, U)``. The caller computes the cosines and sines, so
    that ``dp_exp_full`` can reuse sin t.
    """
    top = _plus_identity((V * (cos_t[..., None, :] - 1.0)) @ V.mT)
    return np.concatenate([top, (U * sin_t[..., None, :]) @ V.mT], axis=-2)


def _generator_svd(B: np.ndarray) -> tuple:
    """(V, s, U) from one thin SVD B = U diag(s) V^T of a finite generator block, or of each of a stack."""
    B = check_finite_matrix(B, name="generator block", batch=None)
    U, s, Vt = _svd(B)
    return Vt.mT, s, U


def _generator(V: np.ndarray, s: np.ndarray, U: np.ndarray) -> np.ndarray:
    """The block B = U diag(s) V^T, or each of a stack."""
    return (U * s[..., None, :]) @ V.mT


def dp_exp(gen: DpGenerator, tol: Tolerances = default_tolerances()) -> CartanRotation:
    """Exponential of a d_p0 generator, in S_p0 by construction.

    One thin SVD B = U diag(s) V^T gives the rotation in cosine-sine form
    and the frame of its plane, the same form at half the angles
    (``_cs_frame``). Its residuals are rounding only, so nothing is checked
    unless ``tol`` is below that (``_sure``); then the rotation goes through
    the public check (``_checked_where_unsure``). ``_sure`` does not depend
    on the element, so a stacked generator is sure of every element or of
    none. ``verify`` passes these rotations through the public constructor.
    """
    sig = gen._sig
    V, s, U = _generator_svd(gen.B)
    R, sure, t = _cs_rotation(V, s, U), _sure(tol, sig.n * _ROUND), 0.5 * s
    F = _checked_where_unsure(sure, _cs_frame(V, np.cos(t), np.sin(t), U), _cartan_rotation, sig, tol, R)
    return _trusted(CartanRotation, tol, mat=_frozen(R), sig=sig, _frame=_frozen(F))


def _angle_pairs(top: np.ndarray, bottom: np.ndarray) -> tuple:
    """(V, phi, W): the principal angles phi between two planes, and their pairs.

    ``top`` is Fa^T Fb and ``bottom`` is Fb - Fa (Fa^T Fb), or its nonzero
    rows, for frames Fa and Fb of the planes. The cosines c come from one
    SVD of the top block, top = V diag(c) W^T. Near c = 1, arccos(c) is
    accurate to eps / phi only, and the right singular vectors of cosines
    within eps of each other mix; beside zero angles, an angle of 1e-7
    costs about 1e-7 in dp_exp(dp_log0(R)). So the angles below 1e-2 are
    read off the sines instead, from one SVD of the bottom block on their
    right singular subspace, which also turns those columns of W and V onto
    the sine pairs; those angles come first, descending. Above 1e-2 the
    cosine route keeps that round trip within about 1e-12 at n <= 32. The
    elements of a stack are grouped by m, their count of angles below 1e-2
    (``_groups``), and each group with m > 0 runs one stacked SVD of the
    bottom block on those m columns. A single call with no small angle
    makes one test.
    """
    V, c, Wt = _svd(top, full=True)
    phi = np.arccos(np.clip(c, -1.0, 1.0))
    W, small = Wt.mT, phi[..., 0] < 1e-2  # phi ascends
    if small is np.False_ or not small.any():  # no sine branch: one test for a single call
        return V, phi, W
    for m, at in _groups((phi < 1e-2).sum(axis=-1)):  # the sine branch, per count m of small angles
        if m:
            V_m, phi_m, W_m = V[at], phi[at], W[at]
            _, sines, Zt = _svd(bottom[at] @ W_m[..., :m], full=True)
            W_m[..., :m] = W_m[..., :m] @ Zt.mT
            phi_m[..., :m] = 0.0
            phi_m[..., : sines.shape[-1]] = np.arcsin(np.minimum(sines, 1.0))
            V_m[..., :m] = (top[at] @ W_m[..., :m]) / np.cos(phi_m[..., None, :m])
            V[at], phi[at], W[at] = V_m, phi_m, W_m
    return V, phi, W


def principal_angles(a: Plane, b: Plane) -> np.ndarray:
    """Principal angles between two planes, ascending; or between each pair of two stacks.

    The cosines are the singular values of Fa^T Fb; the angles below 1e-2
    are read off the sines, the singular values of (I - Pa) Fb =
    Fb - Fa (Fa^T Fb), as ``_principal_pairs`` reads them (``_angle_pairs``).
    b must have the (n, p) and the leading shape of a.
    """
    if (a.n, a.p) != (b.n, b.p):
        raise DimensionMismatchError("planes must share (n, p)")
    _stacked_like(b.frame, 2, a.frame.shape[:-2], "plane")
    M = a.frame.mT @ b.frame
    return np.sort(_angle_pairs(M, b.frame - a.frame @ M)[1])


# The sine of a principal angle at or below which its pair gets a zero U
# column, rather than its bottom-block column, which is then rounding,
# divided by that sine.
_SINE_TOL = 1e-9


def _principal_pairs(F: np.ndarray, tol: Tolerances) -> tuple:
    """(V, s, U, phi, sin phi) with dp_exp(U diag(s) V^T) = R, for F a frame of rho0(R).

    The plane of exp(omega) is exp(omega/2) applied to the reference plane,
    so s is twice the principal angles phi between rho0(R) and the reference
    plane, whose frame is the first p columns of I; V (p x p) and U (q x p)
    hold the principal pairs. The top block is F[:p] and the nonzero rows of
    the bottom block are F[p:] (``_angle_pairs``). A pair with
    sin(phi) <= ``_SINE_TOL`` gets a zero U column. A principal angle within
    ``tol.branch`` of pi/2 is the cut locus and raises ``CutLocusError``.
    phi and its sines, which this computes anyway, are returned too:
    0.5 s is phi exactly, so ``dp_log_full`` reads its half-angle factors
    and its turn back by s/2 off them with no sine computed again.
    """
    p = F.shape[-1]
    V, phi, W = _angle_pairs(F[..., :p, :], F[..., p:, :])
    top = phi.max(axis=-1)
    _require(~(top >= 0.5 * math.pi - tol.branch), CutLocusError, "cut locus: generator not unique",
             max_principal_angle=top)
    sin_phi = np.sin(phi)
    inv_sin = np.divide(1.0, sin_phi, out=np.zeros(phi.shape), where=sin_phi > _SINE_TOL)
    return V, 2.0 * phi, (F[..., p:, :] @ W) * inv_sin[..., None, :], phi, sin_phi


def dp_log0(R: CartanRotation) -> DpGenerator:
    """Generator with dp_exp(gen) = R, for planes in generic position, under R's tolerances.

    The generator is built from R's signature and a block computed here,
    which pass its check by construction (``_dp_generator``).
    """
    return _dp_generator(_generator(*_principal_pairs(R._frame, R._tol)[:3]), R.sig)
