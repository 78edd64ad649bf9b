"""Independent brute-force oracles used only by the tests.

These deliberately avoid the canonical-form code paths they check. The
series exponential and the SVD projector are the ones ``cartanbundle.verify``
ships as its own oracles, re-exported here under the test names.
"""

import math

import numpy as np

from cartanbundle import matcore as mc
from cartanbundle.bundle import DpElement, sigma
from cartanbundle.errors import IllConditionedSpectrumError, NotInCartanModelError
from cartanbundle.grassmann import DpGenerator, _cs_rotation, _generator, _generator_svd, _principal_pairs
from cartanbundle.liegroup import _factors, _pull_back, y_omega
from cartanbundle.verify import series_exp as series_exp_oracle
from cartanbundle.verify import svd_projector as svd_projector_oracle  # noqa: F401


def gram_schmidt_oracle(V):
    """Modified Gram-Schmidt with reorthogonalization, in the natural column order."""
    F = np.array(V, dtype=float)
    for k in range(F.shape[1]):
        for _ in range(2):  # second pass kills roundoff leakage
            for m in range(k):
                F[:, k] -= (F[:, m] @ F[:, k]) * F[:, m]
        F[:, k] /= np.linalg.norm(F[:, k])
    return F


def y_series_oracle(omega, v, terms=50):
    """Translation series v + omega v / 2! + omega^2 v / 3! + ..."""
    acc = np.zeros_like(v, dtype=float)
    term = np.asarray(v, dtype=float)
    for k in range(1, terms + 1):
        acc = acc + term
        term = omega @ term / (k + 1)
    return acc


def homogeneous_exp_oracle(omega, v):
    """Series exponential of the (n+1) x (n+1) screw block matrix."""
    n = omega.shape[0]
    M = np.zeros((n + 1, n + 1))
    M[:n, :n] = omega
    M[:n, n] = v
    return series_exp_oracle(M)


def longdouble_exp_oracle(M):
    """exp(M) in ``np.longdouble``: a Taylor series of M / 2^k, squared k times.

    k brings |M / 2^k| down to 1/2 or less, where 30 terms leave a remainder
    below 1e-40. Only ``matmul`` runs, which NumPy evaluates in long double;
    ``np.linalg`` would not.
    """
    M = np.asarray(M, dtype=np.longdouble)
    size = float(np.sqrt((M * M).sum()))
    k = max(0, math.ceil(math.log2(2.0 * size))) if size > 0 else 0
    A = M / np.longdouble(2) ** k
    E = term = np.eye(M.shape[0], dtype=np.longdouble)
    for j in range(1, 31):
        term = term @ A / j
        E = E + term
    for _ in range(k):
        E = E @ E
    return E


def longdouble_line_oracle(theta, U, lam):
    """(R, X) of the line-bundle exponential of (-theta e_1 ^ U, lam e_1), in ``np.longdouble``.

    U has U[0] = 0 and enters with its own norm r: the generator turns the
    plane of e_1 and u = U / r by phi = theta r. So R is Rodrigues'
    I + sin(phi) K + (1 - cos(phi)) K^2 for K = u e_1^T - e_1 u^T, and X is
    lam (2 sin(phi/2) / phi) (cos(phi/2) e_1 + sin(phi/2) u), the paper's
    half-angle vector scaled, with the limit lam e_1 at phi = 0. ``np.sin``
    and ``np.cos`` of a long double are long-double accurate.
    """
    U = np.asarray(U, dtype=np.longdouble)
    assert U[0] == 0
    r = np.sqrt((U * U).sum())
    u, phi, half = U / r, np.longdouble(theta) * r, np.longdouble(theta) * r / 2
    E1 = np.zeros(len(U), dtype=np.longdouble)
    E1[0] = 1
    K = np.outer(u, E1) - np.outer(E1, u)
    R = np.eye(len(U), dtype=np.longdouble) + np.sin(phi) * K + (1 - np.cos(phi)) * (K @ K)
    factor = np.sin(half) / half if phi != 0 else np.longdouble(1)
    return R, np.longdouble(lam) * factor * (np.cos(half) * E1 + np.sin(half) * u)


def dp_log_v_oracle(omega, X, p):
    """Least-squares pull-back of X through Y_omega restricted to span(e_1..e_p).

    Builds the restricted map column by column from the generic ``y_omega``.
    """
    n = omega.shape[0]
    M = np.column_stack([y_omega(omega, np.eye(n)[:, k]) for k in range(p)])
    v, *_ = np.linalg.lstsq(M, X, rcond=None)
    return v


def sigma_residual_oracle(g, sig):
    """|| sigma(g) g - I || from sigma(g) built as a motion, block by block, combined by ``np.hypot`` as the library does."""
    h = sigma(g, sig)
    return np.hypot(
        np.linalg.norm(h.R @ g.R - np.eye(sig.n)), np.linalg.norm(h.X + h.R @ g.X)
    )


def certificate_residuals_oracle(g, sig):
    """Each residual a ``CartanMotion`` bounds, in the order it checks them.

    Rows are (name, residual, Tolerances field, factor): a check fails when
    residual > field * factor.
    """
    n, R, X, J = sig.n, g.R, g.X, sig.matrix
    S = R @ J
    scale = 1.0 + np.linalg.norm(X)
    return [
        ("orth", np.linalg.norm(R.T @ R - np.eye(n)), "orth", n),
        ("det", abs(np.linalg.det(R) - 1.0), "orth", n),
        ("symmetric", np.linalg.norm(S - S.T), "invol", 1),
        ("involution", np.linalg.norm(S @ S - np.eye(n)), "invol", 1),
        ("sigma", sigma_residual_oracle(g, sig), "invol", scale),
        ("fiber", 0.5 * np.linalg.norm(J @ X + R.T @ X), "fiber", scale),
    ]


def certificate_error_oracle(g, sig, tol):
    """The error class a ``CartanMotion`` of the finite n x n motion g raises, or None."""
    for name, residual, field, factor in certificate_residuals_oracle(g, sig):
        if residual > getattr(tol, field) * factor:
            return IllConditionedSpectrumError if field == "orth" else NotInCartanModelError
        if name == "involution" and (np.linalg.eigvalsh(g.R @ sig.matrix) < 0).sum() != sig.p:
            return NotInCartanModelError
    return None


# The desk maps with nothing shared: each cosine, sine and half-angle factor
# is computed where it is used, and each generator goes through the public
# constructor. The maps, which share them, must equal these bit for bit.


def cs_frame_oracle(V, t, U):
    """The first p columns of the cosine-sine form at angles t, cos t and sin t computed here."""
    t = t[..., None, :]
    top = (V * (np.cos(t) - 1.0)) @ V.mT
    p = top.shape[-1]
    top[..., range(p), range(p)] += 1.0
    return np.concatenate([top, (U * np.sin(t)) @ V.mT], axis=-2)


def dp_exp_full_oracle(xi):
    """(R, X, F) of ``dp_exp_full(xi)`` where it is sure: the frame at s/2, then ``_factors(s)`` afresh."""
    v = xi.v
    V, s, U = _generator_svd(xi.gen.B)
    F = cs_frame_oracle(V, 0.5 * s, U)
    return _cs_rotation(V, s, U), np.matvec(F, v + np.matvec(V, (_factors(s) - 1.0) * np.matvec(V.mT, v))), F


def dp_log_full_oracle(s):
    """``dp_log_full(s)`` with cos and sin of half the angles and ``_factors(angles)`` afresh, through the public constructors."""
    sig, X = s.sig, s.motion.X
    V, angles, U = _principal_pairs(s._frame, s._tol)[:3]
    top, bottom = X[..., : sig.p], X[..., sig.p :]
    a, f = np.matvec(V.mT, top), _factors(angles)
    w = (np.cos(0.5 * angles) * a + np.sin(0.5 * angles) * np.matvec(U.mT, bottom)) / f
    return DpElement(gen=DpGenerator(p=sig.p, q=sig.q, B=_generator(V, angles, U)), v=top + np.matvec(V, w - a))


def dp_log0_oracle(R):
    """``dp_log0(R)`` through the public ``DpGenerator`` constructor."""
    return DpGenerator(p=R.sig.p, q=R.sig.q, B=_generator(*_principal_pairs(R._frame, R._tol)[:3]))


# The log of SO(n) as one route for one rotation and for stacks: every element
# grouped by its split and every skew block by its count, written back through
# masks. The kernels, whose one rotation takes no grouping, must equal it bit
# for bit.


def skew_pairs_oracle(W):
    """(Q, s) of ``matcore._skew_pairs``, grouped by count for one matrix too."""
    n = W.shape[-1]
    w, U = mc._eigh(1j * W)
    count = (w > 1e-14 * np.maximum(1.0, mc._norm(W, 2))[..., None]).sum(axis=-1)
    Q, s = np.empty(W.shape), np.zeros(W.shape[:-2] + (n // 2,))
    for c, at in mc._groups(count):
        pairs = U[at][..., n - c :].view(np.float64)
        Q_c, H = mc._qr(pairs, complete=True)
        Q_c[..., : 2 * c] *= np.copysign(1.0, np.diagonal(H, axis1=-2, axis2=-1))[..., None, :]
        Q[at], s[at, :c] = Q_c, w[at][..., n - c :]
    return Q, s


def _pairing_tail_oracle(V, theta, K, k):
    L = (V[..., k:] / np.sinc(theta[..., k:] / math.pi)[..., None, :]) @ (V[..., k:].mT @ K)
    Q, s = skew_pairs_oracle(V[..., :k].mT @ K @ V[..., :k])
    t = math.pi - np.arcsin(np.minimum(s, 1.0))
    V[..., :k] = V[..., :k] @ Q
    A, B, tt = V[..., 0:k:2], V[..., 1:k:2], t[..., None, :]
    L += (B * tt) @ A.mT - (A * tt) @ B.mT
    theta[..., :k] = np.repeat(t, 2, axis=-1)
    return L


def rotation_log_oracle(R):
    """(L, V, theta) of ``matcore._rotation_log`` for R in SO(n) or a stack, grouped by split for one rotation too."""
    S, K = 0.5 * (R + R.mT), 0.5 * (R - R.mT)
    c, V = mc._eigh(S)
    lo = np.clip(c, -0.75, -0.25)
    gaps = [lo[..., :1] + 0.75, lo[..., 1:] - lo[..., :-1], -0.25 - lo[..., -1:]]
    m = np.argmax(np.concatenate(gaps, axis=-1), axis=-1)
    assert (m % 2 == 0).all()
    theta = np.arccos(np.clip(c, -1.0, 1.0))
    splits = mc._groups(m)
    L = (np.empty_like(K) if splits[0][0]
         else (V / np.sinc(theta / math.pi)[..., None, :]) @ (V.mT @ K))
    for k, at in splits:
        if k:
            V_k, theta_k = V[at], theta[at]
            L[at] = _pairing_tail_oracle(V_k, theta_k, K[at], int(k))
            V[at], theta[at] = V_k, theta_k
    return L, V, theta


def checked_logs_oracle(R, X, tol):
    """(L, v): ``so_log`` and ``se_log`` of (R, X) with ``allow_pi``, by the rule that tests det R with an LU.

    R is checked by ``check_special_orthogonal`` (orthogonality, then
    |det R - 1| from ``np.linalg.det``'s gufunc), and then ``_rotation_log``
    rejects an odd count below its split with its own message; X is
    checked last. R may be a stack, and X then a stack of its leading shape.
    """
    L, V, theta = mc._rotation_log(mc.check_special_orthogonal(R, tol))
    X = mc.check_finite_vector(X, theta.shape[-1], "translation", theta.shape[:-1])
    return L, _pull_back(V, theta, _factors(theta), L, X)
