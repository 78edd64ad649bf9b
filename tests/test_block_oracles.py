"""Every (n+1) x (n+1) block matrix comes from one builder, and the
cosine-sine rotation fills its first p columns with its own frame; every
output equals the oracle that writes each block out, bit for bit.

``Motion.homogeneous``, ``Screw.matrix`` and ``is_fixed_point``'s residual
share ``liegroup._block_matrix``; ``dp_exp`` and the deferred rotation of
``dp_exp_full`` build ``grassmann._cs_rotation``. The inputs are one value
and stacks of leading shape (5,) and (2, 3), with B = 0 and generic B.
"""

import math

import numpy as np
import pytest
from oracles import cs_rotation_oracle, fixed_point_oracle, homogeneous_oracle, screw_matrix_oracle

from cartanbundle import DpElement, DpGenerator, Motion, Signature, Tolerances, dp_exp, dp_exp_full, is_fixed_point
from cartanbundle.grassmann import _generator_svd
from cartanbundle.sampling import make_rng, sample_dp_elements, sample_rotations

SHAPES = [(2, 1), (4, 2), (8, 3), (6, 5), (32, 5)]
LEADS = [(), (5,), (2, 3)]


def _elements(n, p, lead, zero):
    count = math.prod(lead)
    B, v = sample_dp_elements(make_rng(1000 * n + p, count), p, n - p, count, math.pi - 0.1)
    if zero:
        B = 0.0 * B
    return DpElement(DpGenerator(p, n - p, B.reshape(lead + B.shape[1:])), v.reshape(lead + v.shape[1:]))


def _same(a, b):
    assert a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


@pytest.mark.parametrize("zero", [True, False], ids=["zero", "generic"])
@pytest.mark.parametrize("lead", LEADS, ids=str)
@pytest.mark.parametrize("n, p", SHAPES, ids=str)
def test_block_matrices_and_rotations_equal_their_oracles_bit_for_bit(n, p, lead, zero):
    xi = _elements(n, p, lead, zero)
    R = cs_rotation_oracle(*_generator_svd(xi.gen.B))
    _same(dp_exp(xi.gen).mat, R)
    s = dp_exp_full(xi)
    assert "motion" not in vars(s)  # the rotation is still deferred
    _same(s.motion.R, R)
    _same(s.motion.homogeneous(), homogeneous_oracle(s.motion))
    screw = xi.screw()
    _same(screw.matrix(), screw_matrix_oracle(screw))
    sig, tol = s.sig, Tolerances()
    verdict = is_fixed_point(s.motion, sig, tol)
    assert type(verdict) is type(fixed_point_oracle(s.motion, sig, tol))
    assert np.array_equal(verdict, fixed_point_oracle(s.motion, sig, tol))


def _straddling(n, p, tol):
    """Nine motions whose residual |sigma(g) - g| steps across ``tol.invol``, by up to 4 ulps each side.

    Each is a fixed point diag(A, B), (0, X_q), plus an off-block part and a
    first-p translation of total residual ``tol.invol`` times 1 + k eps,
    k from -4 to 4.
    """
    rng = make_rng(n + p, 9)
    R = np.zeros((9, n, n))
    R[:, :p, :p], R[:, p:, p:] = sample_rotations(rng, p, 9), sample_rotations(rng, n - p, 9)
    X = rng.standard_normal((9, n))
    X[:, :p] = 0.0
    E, Y = rng.standard_normal((9, n, n)), rng.standard_normal((9, n))
    E[:, :p, :p] = E[:, p:, p:] = Y[:, p:] = 0.0
    size = 2.0 * np.sqrt((E * E).sum(axis=(-2, -1)) + (Y * Y).sum(axis=-1))
    t = tol.invol / size * (1.0 + np.arange(-4, 5) * np.finfo(float).eps)
    return R + t[:, None, None] * E, X + t[:, None] * Y


@pytest.mark.parametrize("n, p", SHAPES, ids=str)
def test_fixed_point_verdicts_equal_the_oracle_across_the_bound(n, p):
    sig, tol = Signature(p, n - p), Tolerances()
    R, X = _straddling(n, p, tol)
    singles = []
    for i in range(9):
        got, want = is_fixed_point(Motion(R[i], X[i]), sig, tol), fixed_point_oracle(Motion(R[i], X[i]), sig, tol)
        assert type(got) is bool and got == want
        singles.append(got)
    assert any(singles) and not all(singles)
    for lead in [(9,), (3, 3)]:
        g = Motion(R.reshape(lead + (n, n)), X.reshape(lead + (n,)))
        got = is_fixed_point(g, sig, tol)
        assert np.array_equal(got, fixed_point_oracle(g, sig, tol))
        assert got.ravel().tolist() == singles
