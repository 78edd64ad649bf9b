"""Seeded deterministic samplers for every domain type.

Streams are derived from a counter-based Philox generator keyed by
(seed, stream id), so samples are reproducible across runs and independent
across parallel workers.
"""

from __future__ import annotations

import numpy as np

from .bundle import BundlePoint, CartanMotion, DpElement, bundle_point, tau
from .errors import DimensionMismatchError
from .grassmann import DpGenerator, Plane, Signature, plane_from_span
from .liegroup import Motion, Screw

def make_rng(seed: int, stream: int = 0) -> np.random.Generator:
    """Deterministic counter-based generator for (seed, stream)."""
    return np.random.Generator(np.random.Philox(key=[seed & (2**64 - 1), stream]))


def sample_rotation(rng: np.random.Generator, n: int) -> np.ndarray:
    """Haar-style rotation via sign-fixed QR of a Gaussian matrix."""
    M = rng.standard_normal((n, n))
    Q, R = np.linalg.qr(M)
    Q = Q * np.sign(np.diag(R))
    if np.linalg.det(Q) < 0:
        Q = Q.copy()
        Q[:, -1] = -Q[:, -1]
    return Q


def sample_skew(rng: np.random.Generator, n: int, scale: float = 1.0) -> np.ndarray:
    A = rng.standard_normal((n, n))
    return scale * 0.5 * (A - A.T)


def sample_skew_bounded(
    rng: np.random.Generator, n: int, max_angle: float
) -> np.ndarray:
    """Skew matrix with spectral norm (largest canonical angle) <= max_angle."""
    W = sample_skew(rng, n)
    top = np.linalg.norm(W, 2)
    if top > 0:
        W *= max_angle * rng.uniform(0.05, 1.0) / top
    return W


def sample_screw(rng: np.random.Generator, n: int, norm_bound: float = 4.0) -> Screw:
    """Screw with homogeneous-block Frobenius norm at most norm_bound."""
    omega = sample_skew(rng, n)
    v = rng.standard_normal(n)
    total = np.sqrt(np.linalg.norm(omega) ** 2 + np.linalg.norm(v) ** 2)
    if total > 0:
        factor = norm_bound * rng.uniform(0.05, 1.0) / total
        omega, v = omega * factor, v * factor
    return Screw(omega, v)


def sample_motion(rng: np.random.Generator, n: int, trans_scale: float = 1.0) -> Motion:
    return Motion(sample_rotation(rng, n), trans_scale * rng.standard_normal(n))


def sample_plane(rng: np.random.Generator, n: int, p: int) -> Plane:
    if not 1 <= p < n:
        raise DimensionMismatchError("plane sampling requires 1 <= p < n")
    return plane_from_span(rng.standard_normal((n, p)))


def sample_unit_direction(rng: np.random.Generator, n: int) -> np.ndarray:
    """Unit vector orthogonal to e_1."""
    U = np.zeros(n)
    U[1:] = rng.standard_normal(n - 1)
    U /= np.linalg.norm(U)
    return U


def sample_dp_generator(
    rng: np.random.Generator, p: int, q: int, bound: float | None = None
) -> DpGenerator:
    B = rng.standard_normal((q, p))
    if bound is not None:
        top = np.linalg.norm(B, 2)
        if top > 0:
            B *= bound * rng.uniform(0.05, 1.0) / top
    return DpGenerator(p=p, q=q, B=B)


def sample_dp_element(
    rng: np.random.Generator,
    p: int,
    q: int,
    bound: float | None = None,
    v_scale: float = 1.0,
) -> DpElement:
    gen = sample_dp_generator(rng, p, q, bound)
    return DpElement(gen=gen, v=v_scale * rng.standard_normal(p))


def sample_bundle_point(rng: np.random.Generator, n: int, p: int) -> BundlePoint:
    plane = sample_plane(rng, n, p)
    fiber = plane.projector @ rng.standard_normal(n)
    return bundle_point(plane, fiber)


def sample_cartan_motion(rng: np.random.Generator, n: int, p: int) -> CartanMotion:
    """Cartan-model motion produced constructively through the orbit map."""
    sig = Signature(p, n - p)
    return tau(sample_motion(rng, n), sig)


def sample_fixed_point(rng: np.random.Generator, sig: Signature) -> Motion:
    """Motion in the fixed subgroup: block-diagonal, translation in the last q."""
    p, q = sig.p, sig.q
    A = sample_rotation(rng, p) if p > 1 else np.ones((1, 1))
    B = sample_rotation(rng, q) if q > 1 else np.ones((1, 1))
    # flip signs to exercise both O(p) components while keeping det A det B = 1
    if rng.uniform() < 0.5:
        A = A.copy()
        B = B.copy()
        A[:, 0] = -A[:, 0]
        B[:, 0] = -B[:, 0]
    R = np.zeros((sig.n, sig.n))
    R[:p, :p] = A
    R[p:, p:] = B
    X = np.zeros(sig.n)
    X[p:] = rng.standard_normal(q)
    return Motion(R, X)

