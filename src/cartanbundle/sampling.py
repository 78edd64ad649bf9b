"""Seeded deterministic samplers for every domain type, drawn as stacks.

Streams are derived from a counter-based Philox generator keyed by
(seed mod 2^64, stream id), so samples are reproducible across runs and
independent across parallel workers.

Each kind but Cartan motions (which ``tau`` builds from sampled motions)
has a stacked sampler, ``sample_<kind>s(rng, ..., count)``. It draws the
normals of every sample in one call and runs each kernel (``qr``, the
norms, the uniforms) once over the stack. The frames and rotations are
``matcore._sign_fixed_qr``, the QR that ``orthonormalize`` takes; a
rotation reads the sign of its determinant off that QR, with no LU. The
norms are ``matcore._norm`` over each sample, bit for bit
``np.linalg.norm`` of that sample alone; a spectral norm is the largest of
``matcore._singular_values``, as ``np.linalg.norm(x, 2)`` takes it. It
returns NumPy arrays whose leading axes are ``count``: an int, or a tuple
for a grid of samples.
Sample i is index i of each array. Draws are grouped by kind (all
rotations, then all translations, then the uniforms), so a stack of N is in
general not the first N of a stack of more. Each single sampler,
``sample_<kind>(rng, ...)``, is the stack of one, wrapped in its library
type.

Every scale is fixed: Gaussian entries (the skew part of a Gaussian matrix
for a skew), and screws rescaled to a homogeneous-block Frobenius norm of at
most 4. A caller sets only the two bounds that it uses with more than one
value: ``bound`` on |B|_2 of a d_p generator, and ``max_angle`` of a
bounded skew.
"""

from __future__ import annotations

import numpy as np

from .bundle import BundlePoint, CartanMotion, DpElement, bundle_point, tau
from .errors import DimensionMismatchError
from .grassmann import DpGenerator, Plane, Signature, plane_from_frame
from .liegroup import Motion, Screw
from .matcore import _is_dim, _is_int, _norm, _sign_fixed_qr, _singular_values


def make_rng(seed: int, stream: int = 0) -> np.random.Generator:
    """Deterministic counter-based generator for (seed, stream).

    Philox is keyed by the exact uint64 pair (seed mod 2^64, stream). seed
    is any integer (``_is_int``: a NumPy one too, not a bool), and stream an
    integer with 0 <= stream < 2^64, else ``DimensionMismatchError``.
    """
    if not _is_int(seed):
        raise DimensionMismatchError("a seed must be an integer", seed=seed)
    if not _is_int(stream) or not 0 <= stream < 2**64:
        raise DimensionMismatchError("a stream must be an integer with 0 <= stream < 2^64", stream=stream)
    key = np.array([int(seed) & (2**64 - 1), stream], np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


def _shape(count) -> tuple:
    return count if isinstance(count, tuple) else (count,)


def _require(n: int, least: int, kind: str) -> None:
    """n must be a dimension (``matcore._is_dim``) of at least ``least``."""
    if not _is_dim(n) or n < least:
        raise DimensionMismatchError(f"{kind} sampling requires an integer n from {least} to matcore._MAX_DIM", n=n)


def _factors(top: np.ndarray, bound: float, rng) -> np.ndarray:
    """bound u / top per sample, u uniform on [0.05, 1); a zero sample (top 0) stays zero."""
    return bound * rng.uniform(0.05, 1.0, top.shape) / np.where(top > 0, top, 1.0)


def sample_rotations(rng: np.random.Generator, n: int, count) -> np.ndarray:
    """Haar rotations (*count, n, n).

    Each is the sign-fixed QR of a Gaussian matrix, Haar on O(n), with its
    last column negated where the determinant is -1 (Mezzadri, "How to
    generate random matrices from the classical compact groups", Notices
    AMS 54(5), 2007). The sign of the determinant is read off the QR, with
    no LU (``_sign_fixed_qr`` with ``special``): the parity of its nonzero
    tau and of the sign bits of R's diagonal. It is the sign that an LU
    ``det`` of Q gives, so the draws are those of that rule, bit for bit.
    """
    _require(n, 1, "rotation")
    return _sign_fixed_qr(rng.standard_normal((*_shape(count), n, n)), special=True)


def sample_skews(rng: np.random.Generator, n: int, count) -> np.ndarray:
    """Skew matrices (*count, n, n), the skew parts of Gaussian matrices."""
    _require(n, 1, "skew")
    A = rng.standard_normal((*_shape(count), n, n))
    return 0.5 * (A - A.swapaxes(-1, -2))


def sample_skews_bounded(
    rng: np.random.Generator, n: int, count, max_angle: float
) -> np.ndarray:
    """Skew matrices with spectral norm (largest canonical angle) <= max_angle."""
    W = sample_skews(rng, n, count)
    return W * _factors(_singular_values(W)[..., 0], max_angle, rng)[..., None, None]


def sample_screws(rng: np.random.Generator, n: int, count) -> tuple:
    """Screws (omega, v), with homogeneous-block Frobenius norm at most 4."""
    omega = sample_skews(rng, n, count)
    v = rng.standard_normal((*_shape(count), n))
    factor = _factors(np.sqrt(_norm(omega, 2) ** 2 + _norm(v, 1) ** 2), 4.0, rng)
    return omega * factor[..., None, None], v * factor[..., None]


def sample_motions(rng: np.random.Generator, n: int, count) -> tuple:
    """Motions (R, X): Haar rotations, then Gaussian translations."""
    R = sample_rotations(rng, n, count)
    return R, rng.standard_normal((*_shape(count), n))


def sample_frames(rng: np.random.Generator, n: int, p: int, count) -> np.ndarray:
    """Orthonormal frames (*count, n, p) of uniform random p-planes.

    Each is the sign-fixed QR of a Gaussian (n, p) matrix: the Gram-Schmidt
    frame of its columns, in their order, up to rounding. (n, p) is checked
    by ``Signature``.
    """
    Signature(p, n - p)  # the (n, p) check
    return _sign_fixed_qr(rng.standard_normal((*_shape(count), n, p)))


def sample_unit_directions(rng: np.random.Generator, n: int, count) -> np.ndarray:
    """Unit vectors (*count, n) orthogonal to e_1; one (n,) vector for ``count=()``."""
    _require(n, 2, "unit direction")
    U = np.zeros((*_shape(count), n))
    U[..., 1:] = rng.standard_normal((*_shape(count), n - 1))
    return U / np.expand_dims(_norm(U, 1), -1)  # the norm of one vector is a float


def sample_dp_generators(
    rng: np.random.Generator, p: int, q: int, count, bound: float | None = None
) -> np.ndarray:
    """Generator blocks B (*count, q, p), Gaussian, or rescaled to |B|_2 <= bound.

    (p, q) is checked by ``Signature``.
    """
    Signature(p, q)  # the (p, q) check
    B = rng.standard_normal((*_shape(count), q, p))
    if bound is None:
        return B
    return B * _factors(_singular_values(B)[..., 0], bound, rng)[..., None, None]


def sample_dp_elements(
    rng: np.random.Generator, p: int, q: int, count, bound: float | None = None
) -> tuple:
    """Elements (B, v) of d_p: generator blocks, then Gaussian v."""
    B = sample_dp_generators(rng, p, q, count, bound)
    return B, rng.standard_normal((*_shape(count), p))


def sample_bundle_points(rng: np.random.Generator, n: int, p: int, count) -> tuple:
    """Bundle points (F, Y): plane frames, and Gaussian vectors projected into each plane."""
    F = sample_frames(rng, n, p, count)
    y = rng.standard_normal((*_shape(count), n))
    return F, (F @ (F.swapaxes(-1, -2) @ y[..., None]))[..., 0]


def sample_fixed_points(rng: np.random.Generator, sig: Signature, count) -> tuple:
    """Motions (R, X) in the fixed subgroup: block-diagonal, translation in the last q."""
    p, shape = sig.p, _shape(count)
    R = np.zeros((*shape, sig.n, sig.n))
    R[..., :p, :p] = sample_rotations(rng, p, count) if p > 1 else 1.0
    R[..., p:, p:] = sample_rotations(rng, sig.q, count) if sig.q > 1 else 1.0
    # negate the first column of both blocks of half the samples: both O(p)
    # components are drawn, and det A det B stays 1
    flip = rng.uniform(size=shape) < 0.5
    R[flip, :p, 0] *= -1
    R[flip, p:, p] *= -1
    X = np.zeros((*shape, sig.n))
    X[..., p:] = rng.standard_normal((*shape, sig.q))
    return R, X


def _one(stacks: tuple) -> tuple:
    return tuple(s[0] for s in stacks)


def sample_rotation(rng: np.random.Generator, n: int) -> np.ndarray:
    """Haar rotation: the stack of one of ``sample_rotations``."""
    return sample_rotations(rng, n, 1)[0]


def sample_skew(rng: np.random.Generator, n: int) -> np.ndarray:
    """Skew matrix: the stack of one of ``sample_skews``."""
    return sample_skews(rng, n, 1)[0]


def sample_skew_bounded(rng: np.random.Generator, n: int, max_angle: float) -> np.ndarray:
    """Skew matrix with spectral norm (largest canonical angle) <= max_angle."""
    return sample_skews_bounded(rng, n, 1, max_angle)[0]


def sample_screw(rng: np.random.Generator, n: int) -> Screw:
    """Screw: the stack of one of ``sample_screws``."""
    return Screw(*_one(sample_screws(rng, n, 1)))


def sample_motion(rng: np.random.Generator, n: int) -> Motion:
    """Motion: the stack of one of ``sample_motions``."""
    return Motion(*_one(sample_motions(rng, n, 1)))


def sample_plane(rng: np.random.Generator, n: int, p: int) -> Plane:
    """Plane of the frame drawn by ``sample_frames``."""
    return plane_from_frame(sample_frames(rng, n, p, 1)[0])


def sample_unit_direction(rng: np.random.Generator, n: int) -> np.ndarray:
    """Unit vector orthogonal to e_1."""
    return sample_unit_directions(rng, n, 1)[0]


def sample_dp_generator(
    rng: np.random.Generator, p: int, q: int, bound: float | None = None
) -> DpGenerator:
    """Generator of d_p0: the stack of one of ``sample_dp_generators``."""
    return DpGenerator(p=p, q=q, B=sample_dp_generators(rng, p, q, 1, bound)[0])


def sample_dp_element(
    rng: np.random.Generator, p: int, q: int, bound: float | None = None
) -> DpElement:
    """Element of d_p: the stack of one of ``sample_dp_elements``."""
    B, v = _one(sample_dp_elements(rng, p, q, 1, bound))
    return DpElement(gen=DpGenerator(p=p, q=q, B=B), v=v)


def sample_bundle_point(rng: np.random.Generator, n: int, p: int) -> BundlePoint:
    """Bundle point: the stack of one of ``sample_bundle_points``."""
    F, Y = _one(sample_bundle_points(rng, n, p, 1))
    return bundle_point(plane_from_frame(F), Y)


def sample_cartan_motion(rng: np.random.Generator, n: int, p: int) -> CartanMotion:
    """Cartan-model motion produced constructively through the orbit map."""
    return tau(sample_motion(rng, n), Signature(p, n - p))


def sample_fixed_point(rng: np.random.Generator, sig: Signature) -> Motion:
    """Motion in the fixed subgroup: block-diagonal, translation in the last q."""
    return Motion(*_one(sample_fixed_points(rng, sig, 1)))
