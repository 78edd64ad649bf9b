"""The logs of SO(n) and SE(n) accept, raise and return exactly as the rule that tests det R with an LU.

``so_log`` and ``se_log`` take the sign of det R from the split of their
log wherever the orthogonality residual decides it
(``matcore._split_decides_det``), and run the LU ``det`` elsewhere. The
oracle keeps the rule with the LU: ``check_special_orthogonal``, then the
parity of ``_rotation_log`` (``oracles.checked_logs_oracle``). Both logs
must give its bits, or raise its error class with its message and
``index``.

The inputs are Haar rotations and reflections scaled by 1 + eps, with eps
on both sides of each threshold: the orthogonality bound
b = ``tol.orth`` max(1, n), the determinant bound, and the two bounds of
the guard (2 sqrt(n) d <= b and 4 (n + 1) d < 1, for the residual d with
its rounding allowance); b < 1 or not is set by ``tol.orth``. They run one
at a time and as stacks that hold one reflection, every element scaled
alike or only one. Two more cases pin the guard's other bounds: a det that
rounds past a bound below rounding, and a pair of cos(theta) split by a
residual too wide for the split to count pairs.
"""

import math

import numpy as np
import pytest
from lapack_spy import spy
from oracles import checked_logs_oracle

from cartanbundle import Motion, Tolerances, se_log, so_log
from cartanbundle import matcore as mc
from cartanbundle.errors import GeometryError, IllConditionedSpectrumError
from cartanbundle.sampling import make_rng, sample_rotations

SIZES = [1, 2, 3, 5, 8, 32]
# None: tol.orth = 1 / (2 n), b = 1/2, where 4 (n + 1) d < 1 is the guard's binding bound
ORTH = [1e-14, 1e-9, 1e-3, 1.0, None]
EPS = float(np.finfo(float).eps)


def _scales(n: int, b: float) -> list:
    """eps = 0, and eps 10 % inside and outside each threshold of (1 + eps) Q, on both sides of 1."""
    root = math.sqrt(n)
    # the residual of (1 + eps) Q is sqrt(n) |(1 + eps)^2 - 1|
    by_residual = [b, b / (2 * root) - n * n * EPS, 1 / (4 * (n + 1)) - n * n * EPS]
    edges = [math.sqrt(1 + s * d / root) - 1 for d in by_residual if d > 0 for s in (1, -1) if 1 + s * d / root > 0]
    edges += [(1 + s * b) ** (1 / n) - 1 for s in (1, -1) if 1 + s * b > 0]  # |det - 1| = b
    return [0.0] + [e * f for e in edges for f in (0.9, 1.1)]


def _reflected(Q: np.ndarray) -> np.ndarray:
    P = Q.copy()
    P[..., :, 0] *= -1.0
    return P


def _outcome(call, dets: list | None = None):
    """The bytes of what ``call`` returns, or its error's class, message and context; and whether an LU ran."""
    before = len(dets) if dets is not None else 0
    try:
        out = tuple(a.tobytes() for a in call())
    except GeometryError as exc:
        out = (type(exc), exc.detail, repr(exc.context))
    return out, dets is not None and len(dets) > before


def _check(R: np.ndarray, X: np.ndarray, tol: Tolerances, dets: list) -> tuple:
    """Both logs of (R, X) against the oracle; (whether an LU ran in ``so_log``, the oracle's outcome)."""
    want = _outcome(lambda: checked_logs_oracle(R, X, tol))[0]
    got_so, lu = _outcome(lambda: (so_log(R, tol, allow_pi=True),), dets)
    got_se = _outcome(lambda: (lambda s: (s.omega, s.v))(se_log(Motion(R, X), tol, allow_pi=True)))[0]
    assert got_se == want
    assert got_so == (want if isinstance(want[0], type) else want[:1])
    return lu, want[1] if isinstance(want[0], type) else "accepted"


@pytest.mark.parametrize("orth", ORTH, ids=str)
@pytest.mark.parametrize("n", SIZES)
def test_the_logs_decide_as_the_lu_rule(monkeypatch, n, orth):
    tol = Tolerances(orth=orth or 0.5 / n)
    b = tol.orth * n
    rng = make_rng(50, n)
    Q = sample_rotations(rng, n, 4) if n > 1 else np.ones((4, 1, 1))
    X = rng.standard_normal((4, n))
    Q[2] = _reflected(Q[2])  # the stacks' one det -1 element
    dets = []
    spy(monkeypatch, lambda decomposition, a: dets.append(a.shape), ("det",))
    seen = set()
    for eps in _scales(n, b):
        scaled = (1.0 + eps) * Q
        for R in (scaled[0], scaled[2]):
            seen.add(_check(R, X[0], tol, dets))
        seen.add(_check(scaled, X, tol, dets))
        one = Q.copy()
        one[1] = scaled[1]
        seen.add(_check(one, X, tol, dets))
    assert (True, "accepted") in seen  # the LU runs wherever the residual does not decide
    if mc._split_decides_det(0.0, b, n):
        assert {(False, "accepted"), (False, "matrix has determinant != +1")} <= seen
    else:
        assert not any(lu is False and outcome != "matrix is not orthogonal within tolerance" for lu, outcome in seen)


@pytest.mark.parametrize("n", [2, 3])
def test_a_det_that_rounds_past_a_bound_below_rounding_still_raises(n):
    """A rotation whose LU det misses 1 by more than 2 sqrt(n) |R^T R - I|, under a tol.orth between the two.

    Without the rounding allowance the residual alone would accept it; the
    LU rule raises, and so do both logs."""
    R = sample_rotations(make_rng(51, n), n, 20000)
    d, det = mc._norm(R.mT @ R - np.eye(n), 2), mc._det(R)
    far = np.flatnonzero(np.abs(det - 1.0) > 2.0 * math.sqrt(n) * d)[:5]
    assert far.size == 5
    for i in far:
        b = math.sqrt(n) * d[i] + 0.5 * abs(det[i] - 1.0)
        tol = Tolerances(orth=b / n)
        assert b < 1.0 and 2.0 * math.sqrt(n) * d[i] <= b and 4.0 * (n + 1) * d[i] < 1.0
        assert not mc._split_decides_det(d[i], b, n)
        want = _outcome(lambda: checked_logs_oracle(R[i], np.zeros(n), tol))[0]
        assert want[:2] == (IllConditionedSpectrumError, "matrix has determinant != +1")
        _check(R[i], np.zeros(n), tol, [])


def test_a_pair_split_by_a_wide_residual_keeps_the_lu():
    """R = Q diag(1.1, 0.9), Q the turn by 2 pi / 3: det R = 0.99, but (R + R^T)/2 has eigenvalues -0.6 and -0.4,
    whose gap is the widest, so the split counts one. Under b = 0.9 the residual 0.28 passes
    2 sqrt(n) d <= b but not 4 (n + 1) d < 1: the LU runs, passes, and the odd count raises its own error."""
    t = 2 * math.pi / 3
    R = np.array([[math.cos(t), -math.sin(t)], [math.sin(t), math.cos(t)]]) @ np.diag([1.1, 0.9])
    tol = Tolerances(orth=0.45)
    d = mc._norm(R.T @ R - np.eye(2))
    assert 2 * math.sqrt(2) * d <= 0.9 and not mc._split_decides_det(d, 0.9, 2)
    assert _check(R, np.zeros(2), tol, [])[1] == "ill-conditioned spectrum: odd count of angles near pi"
