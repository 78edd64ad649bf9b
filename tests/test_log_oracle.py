"""One rotation takes its own route through the log of SO(n), with no grouping
by split or count; a stack groups its elements. Both equal the oracle that
groups every operand, one rotation too, bit for bit.

``matcore._rotation_log``'s (L, V, theta), ``se_log``, ``so_log`` with
``allow_pi`` and, for one rotation, both canonical forms (from
``_skew_pairs`` of one matrix) are compared at
n = 2, 3, 5, 8 and 32, for one rotation and stacks of leading shape (5,) and
(2, 3). The rotations are splits m = 0 to 12 (up to six planes turned past
3 pi / 4), exact -1 eigenspaces paired at pi, the rotations of
``test_stacked._tail_rotations`` (whose skew blocks have counts that differ
within a split), and random screws with angles up to pi - 1e-3.
"""

import math

import numpy as np
import pytest
from oracles import rotation_log_oracle, skew_pairs_oracle
from test_stacked import _tail_rotations

from cartanbundle import Motion, Screw, canonical_rotation_form, se_exp, se_log, skew_canonical_form, so_log
from cartanbundle import liegroup as lg
from cartanbundle import matcore as mc
from cartanbundle.sampling import make_rng, sample_rotations

SIZES = [2, 3, 5, 8, 32]
LEADS = [(), (5,), (2, 3)]
CASES = ["split", "pi", "tail", "screw"]
# the tail rotations turn two planes, so they start at n = 4
SIZED_CASES = [(n, case) for n in SIZES for case in CASES if case != "tail" or n >= 4]


def _turned(Q: np.ndarray, turns) -> np.ndarray:
    """Q blockdiag(B(t) for t in turns, I) Q^T; a turn of pi is exactly diag(-1, -1)."""
    n = Q.shape[-1]
    B = np.eye(n)
    for b, t in enumerate(turns):
        c, s = (-1.0, 0.0) if t == math.pi else (math.cos(t), math.sin(t))
        B[2 * b : 2 * b + 2, 2 * b : 2 * b + 2] = [[c, -s], [s, c]]
    return Q @ B @ Q.T


def _rotations(n: int, case: str) -> np.ndarray:
    """A stack of rotations of one case, at least six."""
    rng, planes = make_rng(47, 10 * n + CASES.index(case)), n // 2
    if case == "split":  # element j turns min(j, n // 2) planes past 3 pi / 4: split m = 2j
        frames = sample_rotations(rng, n, 7)
        return np.stack([_turned(Q, [rng.uniform(2.6, math.pi - 1e-3) if b < j else rng.uniform(0.0, 1.2)
                                     for b in range(planes)]) for j, Q in enumerate(frames)])
    if case == "pi":  # element i turns i % (n // 2 + 1) planes by exactly pi, then one near pi or generic
        frames = sample_rotations(rng, n, 7)
        return np.stack([_turned(Q, [math.pi if b < i % (planes + 1) else 2.9 if b == i % (planes + 1) and i % 2
                                     else rng.uniform(0.0, 1.2) for b in range(planes)])
                         for i, Q in enumerate(frames)])
    if case == "tail":
        return _tail_rotations(n)
    A = rng.standard_normal((8, n, n))
    omega = 0.5 * (A - A.mT)
    omega *= ((math.pi - 1e-3) * rng.uniform(0.5, 1.0, 8) / np.linalg.norm(omega, 2, axis=(-2, -1)))[:, None, None]
    return se_exp(Screw(omega, np.zeros((8, n)))).R


def _same(a, b) -> None:
    assert a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


def _operands(n: int, lead: tuple, case: str):
    """(R, X): each rotation of the case alone, or a stack of the first ones, with a translation each."""
    R = _rotations(n, case)
    X = make_rng(48, n).standard_normal(R.shape[:-1])
    if not lead:
        return list(zip(R, X))
    size = math.prod(lead)
    return [(R[:size].reshape(lead + (n, n)), X[:size].reshape(lead + (n,)))]


@pytest.mark.parametrize("lead", LEADS, ids=str)
@pytest.mark.parametrize("n, case", SIZED_CASES, ids=str)
def test_the_log_equals_its_grouped_oracle_bit_for_bit(n, case, lead):
    for R, X in _operands(n, lead, case):
        want = rotation_log_oracle(R)
        for a, b in zip(mc._rotation_log(R), want, strict=True):
            _same(a, b)
        L, V, theta = want
        xi = se_log(Motion(R, X), allow_pi=True)
        _same(xi.omega, L)
        _same(xi.v, lg._pull_back(V, theta, lg._factors(theta), L, X))
        _same(so_log(R, allow_pi=True), L)


@pytest.mark.parametrize("n, case", SIZED_CASES, ids=str)
def test_the_canonical_forms_of_one_rotation_equal_their_grouped_oracle(n, case):
    """``canonical_rotation_form`` of R and ``skew_canonical_form`` of its log: the pairs of one skew matrix."""
    for R, _ in _operands(n, (), case):
        L = rotation_log_oracle(R)[0]
        Q, s = skew_pairs_oracle(L)
        for form, (Q_f, angles) in ((canonical_rotation_form(R), mc._forms(Q.copy(), np.minimum(s, math.pi), True)),
                                    (skew_canonical_form(L), mc._forms(Q, s, False))):
            _same(form.Q, Q_f)
            assert form.angles == tuple(angles.tolist())


@pytest.mark.parametrize("n", [8, 32])
def test_the_cases_reach_their_splits(n):
    """The split case takes m = 0, 2, ... up to 2 (n // 2), at most 12; the screws at n = 32 take tails too."""
    c = np.linalg.eigvalsh(0.5 * (_rotations(n, "split") + _rotations(n, "split").mT))
    assert (c < -0.75).sum(axis=-1).tolist() == [2 * min(j, n // 2) for j in range(7)]
    if n == 32:
        R = _rotations(n, "screw")
        assert ((np.linalg.eigvalsh(0.5 * (R + R.mT)) < -0.75).sum(axis=-1) > 0).sum() >= 2
