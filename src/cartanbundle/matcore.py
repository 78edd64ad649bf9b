"""Dense linear-algebra kernels for small ambient dimensions.

Wedge generators, orthonormal frames, projectors, frame completion to SO(n)
by a complete QR factorization, canonical block forms of rotations and skew
matrices, and eigenspace extraction for symmetric orthogonal involutions.

Everything is NumPy. The canonical forms come from one private pairing
routine: the Hermitian ``eigh`` of i W pairs the turning planes of a skew W,
and one complete QR makes the pairs orthonormal and adds the kernel. The
rotation form is the pairs of log R, and one array routine
(``_assemble_form``) orders and orients the pairs of either form; ``_blocks``
builds their block-diagonal matrices. Each form checks its input (R in
SO(n), W skew) and computes the one route it returns; that the rotation
form rebuilds R is checked by ``verify``
(``matcore.canonical_form_reconstruction``), not on every call. The
principal log itself takes one symmetric ``eigh`` of (R + R^T)/2 and pairs
only the angles near pi. The logs check R in SO(n) through ``_checked_log``,
which reads the sign of det R off that ``eigh``'s split, with no LU,
wherever the orthogonality residual decides it (``_split_decides_det``);
the Cartan certificates read it off the count of their S_p0 check's
``eigh`` in the same way (``_count_decides_det``). ``orthonormalize`` is
the sign-fixed QR (``_sign_fixed_qr``) that the samplers also draw their
frames with; the Haar rotations read the sign of their determinant off
that QR's reflectors.

The LAPACK boundary. Every decomposition the library runs goes through one
kernel here: ``_eigh`` (real symmetric or complex Hermitian), ``_svd``
(thin or full), ``_singular_values``, ``_householder_qr`` (reduced or
complete, with the raw factor whose diagonal is R's and the reflectors'
tau; ``_qr`` drops tau), ``_sign_fixed_qr`` and ``_det``.
Each calls the gufunc of NumPy's private module
``numpy.linalg._umath_linalg`` that ``numpy.linalg`` calls, with the same
signature, so its outputs equal ``numpy.linalg``'s bit for bit. What it
skips is ``numpy.linalg``'s per-call wrapper (type promotion, shape
asserts, an input copy, ``triu``, a named tuple), which at n <= 8 costs
about as much as LAPACK does. ``_householder_qr`` copies its operand,
since LAPACK overwrites it. ``_eigh``, ``_svd`` and ``_householder_qr``
keep ``numpy.linalg``'s floating-point policy (``_lapack_policy``), except
that a LAPACK failure to converge raises ``IllConditionedSpectrumError``
where ``numpy.linalg`` raises ``LinAlgError``; ``_det``, like
``np.linalg.det``, sets none. Each kernel looks its gufunc up at call
time, so a patch of one gufunc sees every call (the tests count
decompositions that way).
No other module names a ``numpy.linalg`` decomposition, except ``verify``'s
independent oracles, which keep the public functions on purpose. The gufunc
names are private; they were checked on NumPy 2.4.6, and CI runs the kernel
tests on the oldest NumPy that the package allows. The module is imported
by ``import numpy``, so taking it costs no import time.

Input domain. Every array the library's maps accept, matrix or vector,
passes ``check_finite_matrix`` or ``check_finite_vector``: the shape that
its signature or plane fixes (an n x n rotation, an n-vector, an (n, p)
frame, for the n of the ``Signature`` or the ``Plane``; a square matrix
where nothing fixes n), a real numeric dtype (integer or float: a bool
array is not read as 0 and 1, a complex array is not cast to its real
part, nor a string parsed), and every entry finite and at most
``_MAX_ABS`` = 1e150 in magnitude. Every real scalar they accept (an
angle, a fiber coordinate, a grid bound) passes the same tests,
``check_finite_scalar``: a Python or NumPy integer or float, not a bool (a
string is not parsed, nor a complex number cast), finite and at most
``_MAX_ABS``. The sizes and indices of ``basis_vector``,
``skew_wedge``, ``Signature``, ``coordinate_plane``, ``identity_motion``,
the samplers and ``moebius_grid`` are integers (``_is_int``), and each size
is at most ``_MAX_DIM`` (``_is_dim``), tested before any array is made.
Anything else raises
``DimensionMismatchError`` (code ``dimension_mismatch``), whose context
carries the largest magnitude; this holds for the predicates ``in_Q`` and
``in_Q0`` too. The ceiling keeps every residual norm finite: past about
1.3e154 a Frobenius norm overflows to inf, and a bound of the form
tol (1 + |x|) would then hold for any x. ``projector`` checks its frame as
``check_finite_matrix`` does, or each frame of a stack, but not that its
columns are orthonormal; the library's own callers, whose frames are
checked, call its kernel ``_projector``. Group
arithmetic (``se_mul``, ``se_inv``, ``se_bracket``) and the value types
``Motion`` and ``Screw`` take their operands as given; each map that reads
a motion or a screw checks it.

The validation primitives (``check_finite_matrix``, ``check_finite_vector``,
``check_frame``, ``check_special_orthogonal``) run on every certified
construction, and ``check_skew`` on every exponential. On a 4x4 check,
NumPy's Python-level dispatch costs more than the arithmetic, so they read a
cached read-only identity per n (``_eye``) instead of building one, test the
domain with one reduction (``_in_domain``, over a whole stack at once), and
take Frobenius norms through
``_norm``: NumPy's own fast path for the default norm,
sqrt(x.ravel(order="K").dot(x)), without the argument handling around it, so
every residual stays bit-identical to ``np.linalg.norm``.

Stacks. An operand may carry a leading batch shape ``...`` before its core
shape (NumPy's gufunc convention): an n x n rotation may be a (k, n, n)
stack of them. One rule says which maps take stacks: every map reads its
stack shape from its first operand (the validators' ``batch=None``) and
checks every other operand against that leading shape, with the
validators' ``batch`` for a raw array and ``_stacked_like`` for the
arrays of a certified value. A stack of certified values is one
certified value (a ``Plane``, ``BundlePoint``, ``CartanRotation``,
``CartanMotion``, ``DpGenerator`` or ``DpElement``) whose arrays carry the
leading shape; n, p and the signature are read from the trailing axes,
and the whole stack shares one ``_tol``. Each map is its own kernel, with
no twin that takes a ``batch``. Only the maps that return one record
take one operand: the canonical forms and the involution eigenspace raise
``DimensionMismatchError`` for a stack (``_one``, after a check that takes
stacks). The line maps read their stack shape from the direction U, their
second operand: the angle and fiber coordinate are real scalars for one
direction, and arrays of the directions' leading shape for a stack.
Group arithmetic and the records' matrices read stacks as they are. Each
element of a stack comes out bit for bit as it would alone, since stacked
``eigh``, ``svd``, ``qr``, ``det``, ``matmul``, ``matvec`` and ``vecdot``
equal their per-slice calls, and ``matvec`` and ``vecdot`` of one operand
equal its ``@``. An element that fails a check raises the error class of
its single call, with its ``index`` in the stack in the error's context
(``_require``). Where the elements of a stack differ in a count (the pairs
of a skew matrix, the split of a log, the angles of a form, the small
principal angles of two planes), they are grouped by it (``_groups``), and
each group runs as one stack; no map loops over the elements of a stack one
by one. The groups come in ascending order from one sort (``_distinct``),
not from ``np.unique``, whose first call in a process imports ``numpy.ma``
in NumPy 2.4: about 10 ms of a cold ``verify``.

Elementwise formulas. Every formula of floats (the half-angle factor
``liegroup._factors``, the hypotenuse of ``bundle._sigma_residual``,
verify's root sum of squares) is one NumPy expression, on one operand and
on a stack alike, so a stack agrees with its single calls by construction;
no formula runs per element on Python floats. Their bits are NumPy's,
which need not be ``math``'s: ``np.hypot`` and ``x * x`` each differ from
``math.hypot`` and C ``pow(x, 2)`` in the last bit on some inputs.
``tests/test_stacked.py`` pins that ``np.cos`` and ``np.sin``, which
``_blocks`` calls on the whole array, give the bits of ``math.cos`` and
``math.sin``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from numpy.linalg import _umath_linalg as _lapack

from .config import _REAL_SCALARS, Tolerances, default_tolerances
from .errors import (
    DegenerateSpanError,
    DimensionMismatchError,
    IllConditionedSpectrumError,
    NotOrthogonalSymmetryError,
)


def _norm(x: np.ndarray, core: int | None = None):
    """Frobenius (or 2-) norm of a float array, as ``np.linalg.norm`` computes it.

    With ``core``, the norm of each element of a stack whose elements are its
    trailing ``core`` axes: a float for one element, else an array over the
    batch. ``vecdot`` sums each contiguous row as ``dot`` does, bit for bit,
    but a strided row in another order, so a non-contiguous stack (such as
    the blocks ``R[:, 1:, :1]``) is summed from a C-ordered copy. A stack
    of matrices that lie in memory column by column (such as ``R.mT`` or
    ``R[::2, 1:].mT``) is copied through its transposes, so that each is
    summed in memory order, as ``np.linalg.norm`` reads one such matrix.
    """
    if core is None or x.ndim == core:
        x = x.ravel(order="K")
        return math.sqrt(x.dot(x))
    if core == 2 and abs(x.strides[-2]) < abs(x.strides[-1]):
        x = x.mT
    x = np.ascontiguousarray(x).reshape(*x.shape[:-core], -1)
    return np.sqrt(np.vecdot(x, x))


def _fail_at(ok):
    """Where the test ``ok`` first fails: None if it holds, else the element's index.

    ``ok`` is one test (a bool) for one operand, or a boolean array of tests
    over a stack; a NaN compared into it fails. The index is () for one
    operand.
    """
    if type(ok) is not np.ndarray:
        return None if ok else ()
    return None if ok.all() else tuple(int(k) for k in np.unravel_index(np.argmin(ok), ok.shape))


def _at(i: tuple, **context) -> dict:
    """The error context of element i: ``index`` in a stack, and each value at i.

    ``context`` maps names to values, each over the stack or already the
    element's (a scalar); each is read at i as a Python number.
    """
    context = {k: np.asarray(v)[i if np.ndim(v) else ()].item() for k, v in context.items()}
    if i:
        context["index"] = i[0] if len(i) == 1 else i
    return context


def _require(ok, error, detail: str, **context) -> None:
    """Raise ``error(detail)`` where the test ``ok`` first fails, with that element's context (``_at``).

    A test of one operand that holds (True, or NumPy's True) returns at once.
    """
    if ok is not True and ok is not np.True_ and (i := _fail_at(ok)) is not None:
        raise error(detail, **_at(i, **context))


def _distinct(key: np.ndarray) -> np.ndarray:
    """The distinct values of an integer array, ascending, flat: ``np.unique(key)``.

    One sort and one comparison of neighbours. ``np.unique`` is not called
    anywhere in the package: NumPy 2.4's asks ``np.ma.is_masked`` of its
    operand, so the first call in a process imports ``numpy.ma``, about
    10 ms.
    """
    s = np.sort(key, axis=None)
    new = np.empty(s.shape, bool)
    new[:1] = True
    np.not_equal(s[1:], s[:-1], out=new[1:])
    return s[new]


def _groups(key) -> list:
    """(k, at) for each distinct value k of ``key`` over a stack, ascending, ``at`` the mask of its elements.

    For one operand (a 0-d key) there is one group, and ``at`` is ``...``,
    which indexes the operand itself: a view, and no copy.
    """
    if key.ndim == 0:
        return [(key, ...)]
    return [(k, key == k) for k in _distinct(key)]


@lru_cache(maxsize=64)
def _eye(n: int) -> np.ndarray:
    """The n x n identity, cached and read-only."""
    eye = np.eye(n)
    eye.flags.writeable = False
    return eye


def _is_int(k) -> bool:
    """Whether k is an integer: a Python or NumPy integer, not a bool.

    The one integer test of sizes, indices, signatures, sample counts and
    seeds; each caller raises its own error where it fails. A dimension is
    also held to ``_MAX_DIM`` (``_is_dim``).
    """
    return type(k) is int or isinstance(k, np.integer)  # type(True) is bool, not int


# The largest dimension n. SE(n) acts through (n + 1) x (n + 1) homogeneous
# matrices, and NumPy indexes an array by a signed 64-bit byte count, so
# (n + 1)^2 float64 entries must fit in 2^63 - 1 bytes. Past it, np.eye and
# np.zeros raise NumPy's raw "Maximum allowed dimension exceeded" ValueError
# (at 10**400) or try to allocate; the test runs before any array is made.
_MAX_DIM = math.isqrt((2**63 - 1) // 8) - 1


def _is_dim(n) -> bool:
    """Whether n is a dimension: an integer (``_is_int``) from 1 to ``_MAX_DIM``."""
    return _is_int(n) and 1 <= n <= _MAX_DIM


def basis_vector(i: int, n: int) -> np.ndarray:
    """Standard basis vector e_i of R^n, 1-indexed."""
    if not (_is_int(i) and _is_dim(n) and 1 <= i <= n):
        raise DimensionMismatchError(f"basis index {i!r} must be an integer in [1, {n!r}]")
    e = np.zeros(n)
    e[i - 1] = 1.0
    return e


def skew_wedge(i: int, j: int, n: int) -> np.ndarray:
    """Wedge generator e_i ^ e_j = e_i e_j^T - e_j e_i^T (1-indexed, i < j)."""
    if not (_is_int(i) and _is_int(j) and _is_dim(n) and 1 <= min(i, j) and max(i, j) <= n):
        raise DimensionMismatchError(f"wedge indices ({i!r}, {j!r}) must be integers in [1, {n!r}]")
    if i >= j:
        raise DimensionMismatchError(f"wedge indices ({i}, {j}) must satisfy i < j")
    return _wedge(i, j, n)


def _wedge(i, j, n: int) -> np.ndarray:
    """The kernel of ``skew_wedge``: e_i ^ e_j for checked indices, or one per entry of index arrays i and j.

    e_i and e_j are one-hot rows, so each entry of the outer products is 1
    or +0: the wedge has 1 at (i, j), -1 at (j, i) and +0 elsewhere.
    """
    e_i, e_j = ((np.arange(n) == np.asarray(k)[..., None] - 1).astype(float) for k in (i, j))
    return e_i[..., :, None] * e_j[..., None, :] - e_j[..., :, None] * e_i[..., None, :]


# The input domain: every entry of an accepted array is at most this in
# magnitude. Below it, a Frobenius norm of any array the library builds from
# its inputs stays far from overflow (sqrt of the largest double is 1.3e154),
# so no residual reads inf and no bound tol (1 + |x|) holds by overflow.
# A domain limit, not a tolerance.
_MAX_ABS = 1e150


def _in_domain(x: np.ndarray, name: str, core: int) -> np.ndarray:
    """x, after the one entry test of every array the library accepts.

    Each element (the trailing ``core`` axes) passes
    ``np.abs(x).max() <= _MAX_ABS``, which costs what ``np.isfinite`` does
    and also fails on NaN and +-inf. The error's context carries the
    element's largest magnitude (NaN if there is a NaN). A stack is tested
    by its largest magnitude, in one reduction; only a stack that fails it
    is reduced per element, to find the first element that fails and its
    largest magnitude.
    """
    a = np.abs(x)
    if x.ndim > core and np.maximum.reduce(a, axis=None, initial=0.0) <= _MAX_ABS:  # 0: an empty stack passes
        return x
    top = np.maximum.reduce(a, axis=None if x.ndim == core else tuple(range(-core, 0)))
    i = _fail_at(top <= _MAX_ABS)
    if i is not None:
        detail = f"{name} has an entry that is not finite or exceeds {_MAX_ABS:g}"
        raise DimensionMismatchError(detail, **_at(i, max_abs=top))
    return x


def _real(x, name: str) -> np.ndarray:
    """x as a float array, if its dtype is real numeric (integer or float), else ``DimensionMismatchError``.

    A bool array is not read as 0 and 1, a complex array is not cast to its
    real part, strings are not parsed, and a ragged nesting of lists is no
    array.
    """
    try:
        x = np.asarray(x)
    except ValueError:  # an inhomogeneous shape
        raise DimensionMismatchError(f"{name} must be a rectangular array") from None
    if x.dtype.kind not in "iuf":
        raise DimensionMismatchError(f"{name} must have real numeric entries, got dtype {x.dtype}")
    return x.astype(float, copy=False)


def _in_stack(batch: tuple) -> str:
    """The words that name a leading shape in a shape error, none for one operand."""
    return f" in a stack of leading shape {batch}" if batch else ""


def check_finite_matrix(
    M: np.ndarray, shape: tuple | None = None, name: str = "matrix", batch: tuple | None = ()
) -> np.ndarray:
    """M as a float array, checked to be a nonempty real 2-d array of ``shape`` in the input domain (``_real``).

    ``shape`` is (rows, cols), or (None, None) for a square matrix of any
    size. Without a shape, any nonempty 2-d array passes. With ``batch``, M
    is a stack of such matrices with that leading shape; with None, a stack
    of its own leading shape, or one matrix.
    """
    M = _real(M, name)
    batch = M.shape[:-2] if batch is None else batch
    b = len(batch)
    if M.ndim == b + 2 and shape == (None, None):
        shape = M.shape[b : b + 1] * 2  # square, of its number of rows
    if M.ndim != b + 2 or not M.size or shape and M.shape[b:] != shape or b and M.shape[:b] != batch:
        want = "nonempty" if not shape else "nonempty square" if shape[0] is None else "%d x %d" % shape
        raise DimensionMismatchError(f"{name} must be a {want} 2-d array{_in_stack(batch)}, got shape {M.shape}")
    return _in_domain(M, name, 2)


def check_finite_vector(x: np.ndarray, n: int | None, name: str = "vector", batch: tuple | None = ()) -> np.ndarray:
    """x as a float array, checked to be a nonempty real 1-d array in the input domain (``_real``).

    Its length must be n, unless n is None. With ``batch``, x is a stack of
    such vectors with that leading shape; with None, a stack of its own
    leading shape, or one vector.
    """
    x = _real(x, name)
    batch = x.shape[:-1] if batch is None else batch
    b = len(batch)
    if x.ndim != b + 1 or not x.shape[-1] or n is not None and x.shape[-1] != n or b and x.shape[:b] != batch:
        want = "nonempty" if n is None else f"length-{n}"
        raise DimensionMismatchError(f"{name} must be a {want} 1-d array{_in_stack(batch)}, got shape {x.shape}")
    return _in_domain(x, name, 1)


def _stacked_like(x: np.ndarray, core: int, lead: tuple, name: str) -> None:
    """Raise ``DimensionMismatchError`` unless x, of ``core`` axes or a stack of them, has the leading shape ``lead``.

    For an operand that a certificate has checked (the frame of a plane, the
    fiber of a point) beside the first operand, whose leading shape is
    ``lead``; only its leading shape is read.
    """
    if x.shape[: x.ndim - core] != lead:
        raise DimensionMismatchError(f"{name} must have the leading shape {lead} of the first operand, "
                                     f"got shape {x.shape}")


def _one(x: np.ndarray, name: str, core: int) -> np.ndarray:
    """x, a checked operand of ``core`` axes or a stack of them, if it is one operand, else ``DimensionMismatchError``.

    For a map that reads its operand through a check that takes stacks, but
    returns one record (a canonical form, an eigenspace frame).
    """
    if x.ndim != core:
        raise DimensionMismatchError(f"{name} must be one {core}-d array, not a stack, got shape {x.shape}")
    return x


def check_finite_scalar(x: float, name: str) -> float:
    """x as a float, checked as each entry of an array is: real, finite and at most ``_MAX_ABS`` in magnitude.

    x must be a Python or NumPy integer or float (``_REAL_SCALARS``), as
    ``_real`` requires of an array's dtype: a bool (Python's is an int) is
    not read as 0 or 1, a string or bytes is not parsed, nor a complex
    number cast to its real part. Anything else raises
    ``DimensionMismatchError``; past the ceiling its context carries |x| as
    ``max_abs`` (inf for an integer past the float range, such as 10**400).
    """
    if isinstance(x, bool) or not isinstance(x, _REAL_SCALARS):
        raise DimensionMismatchError(f"{name} must be a real number, got {type(x).__name__}")
    try:
        x = float(x)
    except OverflowError:  # an integer past the float range
        x = math.inf
    if not abs(x) <= _MAX_ABS:  # also true for NaN
        raise DimensionMismatchError(f"{name} is not finite or exceeds {_MAX_ABS:g}", max_abs=abs(x))
    return x


def _lapack_policy(name: str) -> np.errstate:
    """``np.linalg``'s floating-point policy around the gufunc calls of one decomposition, as a decorator.

    A gufunc whose LAPACK routine fails to converge fills its outputs with
    NaN and raises the invalid flag. That flag raises
    ``IllConditionedSpectrumError``, with ``decomposition=name`` in its
    context, where ``np.linalg`` raises ``LinAlgError``; over, divide and
    under are ignored. The decorator form sets the policy per call, so it
    holds across threads.
    """

    def failed(err, flag):
        raise IllConditionedSpectrumError(f"LAPACK {name} did not converge", decomposition=name)

    return np.errstate(call=failed, invalid="call", over="ignore", divide="ignore", under="ignore")


@_lapack_policy("eigh")
def _eigh(a: np.ndarray) -> tuple:
    """(w, V) = ``np.linalg.eigh(a)``: a real symmetric or complex Hermitian float array, or a stack."""
    return _lapack.eigh_lo(a, signature="D->dD" if a.dtype.kind == "c" else "d->dd")


@_lapack_policy("svd")
def _svd(a: np.ndarray, full: bool = False) -> tuple:
    """(U, s, V^T) = ``np.linalg.svd(a, full_matrices=full)`` of a real float array, or a stack."""
    return (_lapack.svd_f if full else _lapack.svd_s)(a, signature="d->ddd")


@_lapack_policy("svd")
def _singular_values(a: np.ndarray) -> np.ndarray:
    """s = ``np.linalg.svd(a, compute_uv=False)`` of a real float array, or a stack: descending."""
    return _lapack.svd(a, signature="d->d")


@_lapack_policy("qr")
def _householder_qr(a: np.ndarray, complete: bool = False) -> tuple:
    """(Q, H, tau): the Q of ``np.linalg.qr(a)`` or, with ``complete``, of ``mode="complete"``; a real array or a stack.

    H is the raw factor, a float copy of a that LAPACK overwrites with its
    Householder QR: R lies on and above its diagonal (``np.linalg.qr``'s R
    is the upper triangle of its leading rows), so R's diagonal is H's.
    tau holds one scale per reflector, min(m, n) of them: Q is the product
    of the reflectors I - tau v v^T, each a reflection (det -1) where its
    tau is nonzero and the identity where it is 0. For an m x n operand a
    reduced Q is m x min(m, n) and a complete Q is m x m; for m <= n they
    agree, and the reduced gufunc runs, as ``np.linalg.qr`` picks.
    """
    H = a.astype(np.float64)  # a copy: qr_r_raw overwrites its operand
    tau = _lapack.qr_r_raw(H, signature="d->d")
    m, n = a.shape[-2:]
    return (_lapack.qr_complete if complete and m > n else _lapack.qr_reduced)(H, tau, signature="dd->d"), H, tau


def _qr(a: np.ndarray, complete: bool = False) -> tuple:
    """(Q, H) of ``_householder_qr``: the Q of ``np.linalg.qr(a)``, or of ``mode="complete"``, and the raw factor."""
    return _householder_qr(a, complete)[:2]


def _det(a: np.ndarray):
    """``np.linalg.det(a)`` of a real square float array, or a stack.

    An LU factorization cannot fail to converge (a singular matrix gives 0),
    so, as in ``np.linalg.det``, no policy is set around it.
    """
    return _lapack.det(a, signature="d->d")


def _sign_fixed_qr(M: np.ndarray, complete: bool = False, special: bool = False) -> np.ndarray:
    """The Q of each matrix's QR (``_householder_qr``), with the column signs that make R's diagonal positive.

    For M of full column rank, this is the Gram-Schmidt frame of M's columns
    in their order, up to rounding, and a pure function of M. Each of the
    first columns, one per entry of R's diagonal, is negated where that
    entry is negative (``np.copysign``); with ``complete``, the columns past
    them complete the frame and keep the signs of Q. With ``special``, each
    square Q is then put in SO(n): its last column is negated where
    det Q = -1, a sign read off the QR with no LU. Each nonzero tau is one
    reflection, and the fix negates one column per entry of R's diagonal
    whose sign bit is set (``np.copysign`` reads the sign bit, so a -0.0
    counts, hence ``np.signbit`` and not < 0): det Q is -1 to the sum of
    both counts.
    """
    Q, H, tau = _householder_qr(M, complete)
    r = np.diagonal(H, axis1=-2, axis2=-1)
    Q[..., : H.shape[-1]] *= np.copysign(1.0, r)[..., None, :]
    if special:
        Q[(np.count_nonzero(tau, axis=-1) + np.count_nonzero(np.signbit(r), axis=-1)) % 2 == 1, :, -1] *= -1
    return Q


_RANK_TOL = 1e-9  # relative smallest-singular-value cutoff of orthonormalize


def orthonormalize(vectors: np.ndarray) -> np.ndarray:
    """Orthonormal frame with the same column span as ``vectors``.

    The sign-fixed QR of the columns (``_sign_fixed_qr``): the Gram-Schmidt
    frame in the natural column order, so the output is deterministic for
    identical input. A set whose smallest singular value is at most
    ``_RANK_TOL`` max(1, largest) raises ``DegenerateSpanError``.
    """
    V = check_finite_matrix(vectors, name="spanning set")
    n, p = V.shape
    if p > n:
        raise DegenerateSpanError(f"{p} vectors cannot be independent in R^{n}")
    svals = _singular_values(V)
    if svals[-1] <= _RANK_TOL * max(1.0, svals[0]):
        raise DegenerateSpanError(
            "degenerate spanning set",
            smallest_singular_value=float(svals[-1]),
        )
    return _sign_fixed_qr(V)


def check_frame(F: np.ndarray, tol: Tolerances = default_tolerances()) -> np.ndarray:
    """Validate that F has orthonormal columns: |F^T F - I| at most ``tol.orth`` max(1, n), or each frame of a stack."""
    return _checked_frame(F, tol)


def _checked_frame(F: np.ndarray, tol: Tolerances) -> np.ndarray:
    """``check_frame`` of F or of a stack, under a ``tol`` that the caller gives."""
    F = check_finite_matrix(F, name="frame", batch=None)
    n, p = F.shape[-2:]
    if p > n:
        raise DimensionMismatchError(f"frame has {p} columns in dimension {n}")
    orthonormal = _norm(F.mT @ F - _eye(p), 2) <= tol.orth * max(1, n)
    if orthonormal is not True:  # a stack, or one frame that fails
        _require(orthonormal, DegenerateSpanError, "frame columns are not orthonormal")
    return F


def projector(F: np.ndarray) -> np.ndarray:
    """Orthogonal projector F F^T onto the column span of a frame, or of each of a stack.

    F is checked as ``check_finite_matrix`` checks a matrix, or each matrix
    of a stack: a real numeric array in the input domain. Its columns are
    not checked to be orthonormal; F F^T is a projector only if they are.
    """
    return _projector(check_finite_matrix(F, None, "frame", None))


def _projector(F: np.ndarray) -> np.ndarray:
    """The kernel of ``projector``: F F^T for a checked float frame, or for each of a stack."""
    return F @ F.mT


def complete_to_special_orthogonal(
    F: np.ndarray, tol: Tolerances = default_tolerances()
) -> np.ndarray:
    """Extend a frame to a full matrix in SO(n) with F as its leading block, or each frame of a stack.

    The complement is the trailing n - p columns of the complete QR
    factorization of F, so the result is a pure function of F. The last
    column is negated when needed to land in SO(n). At p = n there is no
    complement to negate, so a frame with det F < 0 raises
    ``IllConditionedSpectrumError``, as ``check_special_orthogonal`` does.
    """
    F = check_frame(F, tol)
    if F.shape[-2] == F.shape[-1]:
        _require(~(_det(F) < 0), IllConditionedSpectrumError, "a frame with det -1 has no completion in SO(n)")
    return _complete_frames(F)


def _complete_frames(F: np.ndarray) -> np.ndarray:
    """``complete_to_special_orthogonal`` of each checked frame in a (..., n, p) stack.

    One stacked complete QR gives every complement and one stacked ``det``
    every sign; each matrix comes out as it would alone.
    """
    p = F.shape[-1]
    A = np.concatenate([F, _qr(F, complete=True)[0][..., p:]], axis=-1)
    A[..., -1] *= np.where(_det(A) < 0, -1.0, 1.0)[..., None]
    return A


def _blocks(angles: np.ndarray, n: int, rotation: bool) -> np.ndarray:
    """blockdiag(B(theta_1), ..., B(theta_k), I or 0), n x n, for the k angles of one form or of each of a stack.

    B(theta) is the planar rotation [[cos, -sin], [sin, cos]] (``np.cos``
    and ``np.sin``, whose bits are libm's) for a rotation form,
    Pi(theta) = [[0, -theta], [theta, 0]] for a skew form; the trailing
    coordinates get 1 or 0. An angle of 0, which a stacked form holds past
    its count, gives the block of fixed coordinates: its off-diagonal
    entries are 0 - 0 = +0.
    """
    c, s = (np.cos(angles), np.sin(angles)) if rotation else (np.zeros_like(angles), angles)
    D, i = np.zeros(angles.shape[:-1] + (n, n)), np.arange(n)
    D[..., i, i] = float(rotation)
    j = i[: 2 * angles.shape[-1] : 2]  # the first row of each block
    D[..., j, j] = D[..., j + 1, j + 1] = c
    D[..., j + 1, j], D[..., j, j + 1] = s, 0.0 - s
    return D


@dataclass(frozen=True)
class CanonicalRotationForm:
    """Block decomposition Q . blockdiag(B(theta_1), ..., B(theta_k), 0 or I) . Q^T.

    For rotations the blocks are planar rotations R(theta); for skew matrices
    they are Pi(theta) = [[0, -theta], [theta, 0]] (``_blocks``). ``angles``
    is sorted descending; the trailing ``fixed_dim`` coordinates are fixed
    (rotation) or annihilated (skew).

    An unchecked record: its fields are taken as given, and each map that
    reads them checks them.
    """

    Q: np.ndarray
    angles: tuple
    fixed_dim: int

    @property
    def n(self) -> int:
        return self.Q.shape[0]

    def rotation_blocks(self) -> np.ndarray:
        return _blocks(np.array(self.angles, dtype=float), self.n, rotation=True)

    def skew_blocks(self) -> np.ndarray:
        return _blocks(np.array(self.angles, dtype=float), self.n, rotation=False)

    def rotation_matrix(self) -> np.ndarray:
        return self.Q @ self.rotation_blocks() @ self.Q.T

    def skew_matrix(self) -> np.ndarray:
        return self.Q @ self.skew_blocks() @ self.Q.T


def check_special_orthogonal(R: np.ndarray, tol: Tolerances = default_tolerances()) -> np.ndarray:
    """R, checked to be a real square matrix in the input domain and in SO(n) under ``tol``, or each of a stack."""
    return _checked_rotation(R, tol)[0]


def _checked_rotation(R: np.ndarray, tol: Tolerances, n: int | None = None) -> tuple:
    """(R, |R^T R - I|): ``check_special_orthogonal``, also returning its orthogonality residual.

    R must be n x n, or square of any size if n is None, or a stack of
    them, and the residual is then one per element. R is orthogonal
    (``_orthogonal``), and then |det R - 1| is held to the same bound by
    an LU ``det`` (``_special``). This is the SO(n) check of the maps that
    have no decomposition of R to read det's sign from. The logs
    (``_checked_log``) and the Cartan certificates
    (``grassmann._special_unless_counted``) run the same two checks, but
    read that sign off their own ``eigh`` wherever the residual decides
    the size of det R, and accept and raise exactly as this does.
    """
    R, defect, bound = _orthogonal(R, tol, n)
    _special(R, bound)
    return R, defect


_NOT_SPECIAL = "matrix has determinant != +1"
_EPS = float(np.finfo(float).eps)


def _special(R: np.ndarray, bound: float) -> None:
    """The determinant check of ``_checked_rotation``: |det R - 1| <= ``bound`` by an LU ``det``, for R or a stack."""
    _require(abs(_det(R) - 1.0) <= bound, IllConditionedSpectrumError, _NOT_SPECIAL)


def _orthogonal(R: np.ndarray, tol: Tolerances, n: int | None) -> tuple:
    """(R, d, b): R checked in the input domain, n x n and orthogonal, d = |R^T R - I| <= b = ``tol.orth`` max(1, n).

    The first two checks of ``_checked_rotation``, for one R or a stack.
    """
    R = check_finite_matrix(R, (n, n), "rotation", None)
    n = R.shape[-1]
    defect, bound = _norm(R.mT @ R - _eye(n), 2), tol.orth * max(1, n)
    _require(defect <= bound, IllConditionedSpectrumError, "matrix is not orthogonal within tolerance")
    return R, defect, bound


def _checked_log(R: np.ndarray, tol: Tolerances) -> tuple:
    """``_rotation_log`` of R checked in SO(n) under ``tol``, as ``_checked_rotation`` checks it; or of a stack.

    The determinant check of ``_checked_rotation`` runs only where the
    residual does not decide it (``_split_decides_det``); elsewhere the
    log's own split gives the sign of det R: an odd count below it raises
    the determinant's error, with the same ``index``, before the log is
    formed.
    """
    R, defect, bound = _orthogonal(R, tol, None)
    if _split_decides_det(defect, bound, R.shape[-1]):
        return _rotation_log(R, _NOT_SPECIAL)
    _special(R, bound)
    return _rotation_log(R)


def _decided_defect(defect, bound: float, n: int) -> float:
    """d, the largest residual |R^T R - I| of R or a stack, with rounding, where it decides the size of det R; else inf.

    d is the computed residual plus n^2 eps, which covers the rounding of
    R^T R and of its norm, and leaves an ``eigh`` its share. Write R = Q H,
    Q orthogonal and H = (R^T R)^(1/2). Since |det R|^2 =
    det(I + R^T R - I), ||det R| - 1| <= sqrt(n) d, so 2 sqrt(n) d <= b
    leaves b/2 for the rounding of the LU determinant, and b < 1 puts a
    negative det R far outside the bound. Where both hold, the sign of
    det R decides |det R - 1| <= b; inf fails every bound a caller puts on
    d. Two callers know the sign without an LU: the split of a log
    (``_split_decides_det``) and the count of the S_p0 check
    (``_count_decides_det``).
    """
    d = (defect if type(defect) is float else float(defect.max())) + n * n * _EPS
    return d if bound < 1.0 and 2.0 * math.sqrt(n) * d <= bound else math.inf


def _split_decides_det(defect, bound: float, n: int) -> bool:
    """Whether, for every element, |det R - 1| <= ``bound`` holds exactly when the split of ``_rotation_log`` is even.

    The residual must decide the size of det R (``_decided_defect``: d).
    (R + R^T)/2 is within d of (Q + Q^T)/2, for R = Q H as there, whose
    spectrum is each cos(theta) of a turning plane twice, a -1 for each -1
    eigenvalue of Q and a +1 for each +1. The split sits at the widest of
    n + 1 gaps that sum to 1/2, at least 1/(2 (n + 1)), and with
    4 (n + 1) d < 1 no pair, within 2d of itself, spans it; each -1 lies
    below it and each +1 above. So the count below the split is even
    exactly when Q has an even count of -1 eigenvalues, when det R > 0.
    Where all three bounds hold for every element, the split decides;
    otherwise the LU runs.
    """
    return 4.0 * (n + 1) * _decided_defect(defect, bound, n) < 1.0


def _count_decides_det(defect, bound: float, w: np.ndarray, invol: float) -> bool:
    """Whether, for every element, |det R - 1| <= ``bound`` holds, given that R J has exactly p negative eigenvalues w.

    The S_p0 check of a Cartan certificate runs one ``eigh`` of S = R J,
    and passes only an R whose w (ascending) has exactly p negative
    entries. The residual must decide the size of det R
    (``_decided_defect``). ``eigh`` reads the lower triangle of S, a
    symmetric S_l with |S - S_l|_2 <= |S - S^T| / sqrt(2); the check has
    held |S - S^T| to ``invol``, which stands in for it here. Each of w is
    within about n^2 eps max|w| of an eigenvalue of S_l. So where every |w|
    exceeds ``invol`` plus twice that, the smallest singular value of S_l
    exceeds |S - S_l|_2, and no matrix on the segment from S_l to S is
    singular: det S has the sign of det S_l, (-1)^p. With
    det J = (-1)^p, det R > 0.
    """
    a = np.abs(w)
    return _decided_defect(defect, bound, w.shape[-1]) < math.inf and bool(
        a.min() > invol + 2.0 * w.shape[-1] ** 2 * _EPS * a.max())


_SKEW_TOL = 1e-12  # relative skew residual per dimension, |W + W^T| / (n max(1, |W|))


def check_skew(W: np.ndarray) -> np.ndarray:
    """W, checked to be a real square matrix in the input domain and skew, or each matrix of a stack.

    |W + W^T| is held to ``_SKEW_TOL`` n max(1, |W|).
    """
    W = check_finite_matrix(W, (None, None), "skew matrix", None)
    skew = _norm(W + W.mT, 2) <= _SKEW_TOL * W.shape[-1] * np.maximum(1.0, _norm(W, 2))
    _require(skew, IllConditionedSpectrumError, "matrix is not skew-symmetric")
    return W


def _skew_pairs(W: np.ndarray) -> tuple:
    """(Q, s): the turning pairs and kernel of a real skew matrix W, or of each of a stack.

    Q is orthogonal; for each of the c angles s_i > 0, W Q[:, 2i] =
    s_i Q[:, 2i+1] and W Q[:, 2i+1] = -s_i Q[:, 2i], and the trailing columns
    span the kernel. s holds n // 2 entries: the c angles ascending, then
    zeros. An eigenvector u of the Hermitian i W with eigenvalue s > 0 gives
    the pair (Re u, Im u); one complete QR of the columns Re u, Im u of each
    u, interleaved (``U.view(np.float64)``), makes the pairs orthonormal,
    keeping their signs, and completes them by the kernel (``_sign_fixed_qr``).
    Eigenvalues at most 1e-14 max(1, |W|) count as kernel, so the c angles
    are the last c eigenvalues. One matrix takes no grouping: its count is
    one Python comparison and one sum. A stack takes one ``eigh``, and its
    elements are grouped by their count c: each group takes one complete QR
    and one sign fix.
    """
    n = W.shape[-1]
    w, U = _eigh(1j * W)
    s = np.zeros(W.shape[:-2] + (n // 2,))
    if W.ndim == 2:
        c = int((w > 1e-14 * max(1.0, _norm(W, 2))).sum())
        s[:c] = w[n - c :]
        return _sign_fixed_qr(U[:, n - c :].view(np.float64), complete=True), s
    count = (w > 1e-14 * np.maximum(1.0, _norm(W, 2))[..., None]).sum(axis=-1)
    Q = np.empty(W.shape)
    for c, at in _groups(count):
        Q[at] = _sign_fixed_qr(U[at][..., n - c :].view(np.float64), complete=True)
        s[at, :c] = w[at][..., n - c :]
    return Q, s


def _log_above_split(V: np.ndarray, theta: np.ndarray, K: np.ndarray) -> np.ndarray:
    """g(S) K = V diag(theta / sin theta) V^T K on the eigenvectors V of angles theta, as ``_rotation_log`` takes it above its split."""
    return (V / np.sinc(theta / math.pi)[..., None, :]) @ (V.mT @ K)


def _pairing_tail(V: np.ndarray, theta: np.ndarray, K: np.ndarray, k: int) -> np.ndarray:
    """L = log R for rotations whose split in ``_rotation_log`` is k, one or a stack; V and theta are updated in place.

    Above the split, L = g(S) K on the columns V[:, k:] (``_log_above_split``).
    The k columns below it span the turning planes whose angle is near pi:
    the pairs of K restricted to them (``_skew_pairs``) give each plane and
    its angle pi - arcsin(sin theta), and a kernel there, an exact -1
    eigenspace of R, is paired at pi (a padded angle 0 gives
    pi - arcsin 0 = pi). One rotation runs it on its own V, theta and K,
    with no grouping; a stack runs it once per split k, on the elements
    of that split, whose skew blocks ``_skew_pairs`` groups by count.
    """
    L = _log_above_split(V[..., k:], theta[..., k:], K)
    Q, s = _skew_pairs(V[..., :k].mT @ K @ V[..., :k])
    t = math.pi - np.arcsin(np.minimum(s, 1.0))
    V[..., :k] = V[..., :k] @ Q
    A, B, tt = V[..., 0:k:2], V[..., 1:k:2], t[..., None, :]
    L += (B * tt) @ A.mT - (A * tt) @ B.mT
    theta[..., :k] = np.repeat(t, 2, axis=-1)
    return L


def _rotation_log(R: np.ndarray, odd: str = "ill-conditioned spectrum: odd count of angles near pi") -> tuple:
    """(L, V, theta) for R already checked to lie in SO(n), or for each of a stack.

    L is the principal log of R (the +pi resolution at angle pi), V an
    orthonormal eigenbasis of S = (R + R^T)/2 and theta the angle in [0, pi]
    of each column of V. S commutes with K = (R - R^T)/2 and equals
    cos(theta) on each turning plane. One ``eigh`` of S is split at the
    widest gap of its spectrum inside [-3/4, -1/4], at m: the gaps are the
    differences of one array, -3/4, the clipped spectrum, then -1/4. Above
    the split, L = g(S) K with g = theta / sin(theta), which stays below 3.7
    there. Below it g blows up near pi, so the pairs of K there give
    theta = pi - arcsin(sin theta), and an exact -1 kernel is paired at pi
    (``_pairing_tail``). One rotation takes no grouping: it runs the tail
    if m > 0, on its own arrays. A stack runs the tail only on the elements
    with m > 0, as one stack per split m. An odd m, which no pairing
    resolves, raises ``IllConditionedSpectrumError`` with the message
    ``odd``, at the first such element, before any log is formed.
    """
    S, K = 0.5 * (R + R.mT), 0.5 * (R - R.mT)
    c, V = _eigh(S)
    edges = np.empty(c.shape[:-1] + (c.shape[-1] + 2,))
    edges[..., 0], edges[..., -1] = -0.75, -0.25
    c.clip(-0.75, -0.25, out=edges[..., 1:-1])
    m = (edges[..., 1:] - edges[..., :-1]).argmax(axis=-1)
    _require(m % 2 == 0, IllConditionedSpectrumError, odd)
    theta = np.arccos(c.clip(-1.0, 1.0))
    if R.ndim == 2:
        return (_pairing_tail(V, theta, K, int(m)) if m else _log_above_split(V, theta, K)), V, theta
    splits = _groups(m)  # the smallest first: if it is above 0, every element has a tail
    L = np.empty_like(K) if splits[0][0] else _log_above_split(V, theta, K)
    for k, at in splits:
        if k:
            V_k, theta_k = V[at], theta[at]
            L[at] = _pairing_tail(V_k, theta_k, K[at], int(k))
            V[at], theta[at] = V_k, theta_k
    return L, V, theta


def _assemble_form(Q: np.ndarray, s: np.ndarray, rotation: bool) -> tuple:
    """(Q, angles) of both canonical forms, from pairs and angles (Q, s) of ``_skew_pairs`` that share a count.

    Q is one matrix or a stack, and s holds its c angles, ascending, as
    ``eigh`` gives them. So the pairs are reversed. If then det Q < 0, the
    last kernel column is negated, or, with no kernel, the columns of the
    smallest block are swapped and its angle negated. In a rotation form an
    angle of exactly pi (the angles are clamped to pi) stays pi, since a
    turn by pi is its own inverse.
    """
    n, k = Q.shape[-1], s.shape[-1]
    pairs = Q[..., : 2 * k].reshape(*Q.shape[:-1], k, 2)[..., ::-1, :].reshape(*Q.shape[:-1], 2 * k)
    Q, angles = np.concatenate([pairs, Q[..., 2 * k :]], axis=-1), s[..., ::-1].copy()
    neg = _det(Q) < 0
    if not neg.any():
        return Q, angles
    if 2 * k < n:
        Q[..., -1] *= np.where(neg, -1.0, 1.0)[..., None]
    else:
        Q[..., -2:] = np.where(neg[..., None, None], Q[..., :-3:-1], Q[..., -2:])
        angles[..., -1] *= np.where(neg & ~(rotation & (angles[..., -1] == math.pi)), -1.0, 1.0)
    return Q, angles


def _forms(Q: np.ndarray, s: np.ndarray, rotation: bool) -> tuple:
    """(Q, angles): ``_assemble_form`` of the pairs (Q, s) of ``_skew_pairs``, one or a stack.

    For one form, angles holds its c angles, descending. The elements of a
    stack are grouped by their count of angles, and angles holds n // 2
    entries per element, its angles descending and then zeros, as s does.
    """
    if s.ndim == 1:
        return _assemble_form(Q, s[: np.count_nonzero(s)], rotation)
    count, angles = (s > 0).sum(axis=-1), np.zeros_like(s)
    for c, at in _groups(count):
        Q[at], angles[at, :c] = _assemble_form(Q[at], s[at, :c], rotation)
    return Q, angles


def _as_form(Q: np.ndarray, angles: np.ndarray) -> CanonicalRotationForm:
    return CanonicalRotationForm(Q=Q, angles=tuple(angles.tolist()), fixed_dim=Q.shape[0] - 2 * angles.size)


def canonical_rotation_form(
    R: np.ndarray, tol: Tolerances = default_tolerances()
) -> CanonicalRotationForm:
    """Canonical planar-rotation decomposition of R in SO(n).

    Returns Q in SO(n), angles in (-pi, pi] \\ {0} sorted descending, and the
    dimension of the fixed subspace, with Q blockdiag(R(theta_i), I) Q^T = R.
    The blocks are the turning pairs of log R, with the +pi resolution at
    angle pi. Only R is checked, in SO(n) under ``tol``; the reconstruction
    Q blockdiag(R(theta_i), I) Q^T = R is checked by ``verify``
    (``matcore.canonical_form_reconstruction``), not on every call. It
    returns one record, so R must be one rotation, not a stack.
    """
    return _as_form(*_rotation_form(_one(check_special_orthogonal(R, tol), "rotation", 2)))


def _rotation_form(R: np.ndarray) -> tuple:
    """(Q, angles): the kernel of ``canonical_rotation_form``, for R checked in SO(n), or a stack of them.

    angles holds the angles of one form, or of each of a stack padded with
    zeros (``_forms``); ``_blocks`` of them rebuilds each form's blocks.
    """
    Q, s = _skew_pairs(_rotation_log(R)[0])
    return _forms(Q, np.minimum(s, math.pi), rotation=True)


def skew_canonical_form(W: np.ndarray) -> CanonicalRotationForm:
    """Canonical Pi-block decomposition of a skew matrix, from its turning pairs.

    Only W is checked, as skew (``check_skew``); the form rebuilds W within
    1e-10 n max(1, |W|), which the tests hold it to. It returns one record,
    so W must be one matrix, not a stack.
    """
    return _as_form(*_forms(*_skew_pairs(_one(check_skew(W), "skew matrix", 2)), rotation=False))


def _symmetric_involution(S: np.ndarray, tol: Tolerances) -> tuple:
    """(holds, i, defect, |S^2 - I|) for a square S, or for each of a stack.

    The one test of a symmetric involution: |S - S^T| and |S^2 - I| are each
    held to ``tol.invol``, with no factor of n. ``holds`` is the test, a
    bool or one per element; i is where it first fails (``_fail_at``: None
    if it holds), and ``defect`` names the first residual of that element
    that exceeds its bound. ``in_Q0``, the S_p0 check of ``CartanRotation``
    and ``CartanMotion``, and ``eigenspace_of_symmetric_involution`` all
    read it, each raising its own error class.
    """
    sym, invol = _norm(S - S.mT, 2), _norm(S @ S - _eye(S.shape[-1]), 2)
    sym_ok = sym <= tol.invol  # a NaN residual fails
    holds = sym_ok & (invol <= tol.invol)
    i = _fail_at(holds)
    if i is None:
        return holds, None, None, invol
    return holds, i, "not an involution" if np.asarray(sym_ok)[i] else "not symmetric", invol


def eigenspace_of_symmetric_involution(
    S: np.ndarray, eigenvalue: int, tol: Tolerances = default_tolerances()
) -> np.ndarray:
    """Orthonormal frame spanning the (+1) or (-1) eigenspace of S.

    ``eigenvalue`` must be a real number (``check_finite_scalar``: not a
    bool, nor an array) equal to +1 or -1, and S square, else
    ``DimensionMismatchError``; S must be a symmetric involution (an
    orthogonal symmetry), as ``_symmetric_involution`` tests it. The
    returned frame may have zero columns. The frames of a stack differ in
    their count of columns, so S must be one matrix, not a stack.
    """
    V, keep = _eigenspace(S, eigenvalue, tol)
    return _one(V, "symmetry", 2)[:, keep]


def _eigenspace(S: np.ndarray, eigenvalue: int, tol: Tolerances) -> tuple:
    """(V, keep): the kernel of ``eigenspace_of_symmetric_involution``, for S or a stack.

    V is an eigenbasis of each S, and ``keep`` marks its columns whose
    eigenvalue is within 1/2 of ``eigenvalue``: the frame of an element is
    V[..., keep] of that element.
    """
    if check_finite_scalar(eigenvalue, "eigenvalue") not in (1.0, -1.0):
        raise DimensionMismatchError("eigenvalue must be +1 or -1")
    S = check_finite_matrix(S, (None, None), "symmetry", None)
    _, i, defect, _ = _symmetric_involution(S, tol)
    if defect:
        raise NotOrthogonalSymmetryError(f"not an orthogonal symmetry: {defect}", **_at(i))
    w, V = _eigh(S)
    return V, np.abs(w - eigenvalue) < 0.5
