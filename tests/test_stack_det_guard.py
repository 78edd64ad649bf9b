"""Haar draws, the Cartan certificates and the domain test accept, raise and return as the rules with an LU do.

``sample_rotations`` reads the sign of det Q off its QR (the parity of the
nonzero tau and of the sign bits of R's diagonal), and
``CartanRotation.certify`` and ``CartanMotion.certify`` take the sign of
det R from the count of their S_p0 check's ``eigh`` wherever the
orthogonality residual decides its size (``matcore._count_decides_det``);
elsewhere, and before any later check raises, the LU ``det`` runs. The
oracles keep the rules with the LU: the draw negates the last column where
``det`` is negative, and the certificates check det R right after
orthogonality, before anything else. Each must give the oracle's bits, or
raise its error class with its message and context, ``index`` included.

The certificate inputs are Cartan-model rotations (I - 2 P) J and motions
from ``rho_inv``, scaled by 1 + eps, with eps 10 % inside and outside each
threshold: the orthogonality bound b = ``tol.orth`` max(1, n), the
determinant bound, and the guard's 2 sqrt(n) d <= b (d the residual with
its rounding allowance); b < 1 or not is set by ``tol.orth``. The sign
bound, min |w| above ``tol.invol`` plus rounding, is crossed by
``tol.invol`` near 1. The det -1 elements are (I - 2 P) J with rank P = p
+- 1, symmetric involutions that pass the involution test. Stacks put such
an element after one that fails a later check (S_p0, the translation's
domain, sigma or the fiber), so the order of the errors is pinned.

``matcore._in_domain`` tests a stack's largest magnitude once and reduces
per element only when that fails; its oracle reduces per element always.
"""

import math

import numpy as np
import pytest
from lapack_spy import spy

from cartanbundle import CartanMotion, CartanRotation, Motion, Signature, Tolerances
from cartanbundle import bundle as bn
from cartanbundle import grassmann as gr
from cartanbundle import matcore as mc
from cartanbundle.errors import DimensionMismatchError, GeometryError, NotInCartanModelError
from cartanbundle.sampling import make_rng, sample_bundle_points, sample_frames, sample_rotations

EPS = float(np.finfo(float).eps)
SHAPES = [(2, 1), (4, 2), (5, 2), (8, 3), (32, 5)]
ORTH = [1e-14, 1e-9, 1e-3, 1.0]
DET = "matrix has determinant != +1"


# The rules with an LU ----------------------------------------------------


def _rotations_oracle(rng, n: int, count) -> np.ndarray:
    """``sample_rotations`` with the sign of each determinant from an LU ``det``."""
    Q = mc._sign_fixed_qr(rng.standard_normal((*(count if isinstance(count, tuple) else (count,)), n, n)))
    Q[mc._det(Q) < 0, :, -1] *= -1
    return Q


def _rotation_oracle(R, sig: Signature, tol: Tolerances) -> tuple:
    """(R, F) of ``CartanRotation.certify``: SO(n) with the LU det first, then S_p0."""
    R = gr._read_only(mc._checked_rotation(R, tol, sig.n)[0])
    return R, gr._cartan_frame(R, sig, tol)[0]


def _motion_oracle(R, X, sig: Signature, tol: Tolerances) -> tuple:
    """(R, X, F) of ``CartanMotion.certify``: SO(n) with the LU det first, the translation, S_p0, sigma, fiber."""
    R, X = gr._read_only(R), gr._read_only(X)
    mc._checked_rotation(R, tol, sig.n)
    X = mc.check_finite_vector(X, sig.n, "translation", R.shape[:-2])
    F, S, invol = gr._cartan_frame(R, sig, tol)[:3]
    residual = bn._sigma_residual(invol, S, X)
    mc._require(bn._sigma_holds(residual, X, tol), NotInCartanModelError, "sigma(g) != g^{-1}", residual=residual)
    fib = 0.5 * mc._norm(sig._signs * X + np.matvec(R.mT, X), 1)
    mc._require(bn._fiber_holds(fib, X, tol), NotInCartanModelError, "translation is not in the carried plane",
                residual=fib)
    return R, X, F


def _in_domain_oracle(x: np.ndarray, name: str, core: int) -> np.ndarray:
    """``matcore._in_domain`` with every element reduced on its own."""
    top = np.maximum.reduce(np.abs(x), axis=None if x.ndim == core else tuple(range(-core, 0)))
    i = mc._fail_at(top <= mc._MAX_ABS)
    if i is not None:
        detail = f"{name} has an entry that is not finite or exceeds {mc._MAX_ABS:g}"
        raise DimensionMismatchError(detail, **mc._at(i, max_abs=top))
    return x


# Helpers -----------------------------------------------------------------


def _outcome(call, dets: list | None = None) -> tuple:
    """The bytes of what ``call`` returns, or its error's class, message and context; and whether an LU ran."""
    before = len(dets) if dets is not None else 0
    try:
        out = tuple(a.tobytes() for a in call())
    except GeometryError as exc:
        out = (type(exc), exc.detail, repr(exc.context))
    return out, dets is not None and len(dets) > before


def _certified_rotation(R, sig, tol) -> tuple:
    r = CartanRotation.certify(R, sig, tol)
    return r.mat, r._frame


def _certified_motion(R, X, sig, tol) -> tuple:
    m = CartanMotion.certify(Motion(R, X), sig, tol)
    return m.motion.R, m.motion.X, m._frame


def _check_rotation(R, sig, tol, dets) -> tuple:
    """``CartanRotation.certify`` of R against its oracle; (whether an LU ran, the outcome's message)."""
    want = _outcome(lambda: _rotation_oracle(R, sig, tol))[0]
    got, lu = _outcome(lambda: _certified_rotation(R, sig, tol), dets)
    assert got == want
    return lu, want[1] if isinstance(want[0], type) else "accepted"


def _check_motion(R, X, sig, tol, dets) -> tuple:
    """``CartanMotion.certify`` of (R, X) against its oracle; (whether an LU ran, the outcome's message)."""
    want = _outcome(lambda: _motion_oracle(R, X, sig, tol))[0]
    got, lu = _outcome(lambda: _certified_motion(R, X, sig, tol), dets)
    assert got == want
    return lu, want[1] if isinstance(want[0], type) else "accepted"


def _scales(n: int, b: float) -> list:
    """eps = 0, and eps 10 % inside and outside each threshold of (1 + eps) R, on both sides of 1."""
    root = math.sqrt(n)
    # the residual of (1 + eps) R is sqrt(n) |(1 + eps)^2 - 1|
    by_residual = [b, b / (2 * root) - n * n * EPS]
    edges = [math.sqrt(1 + s * d / root) - 1 for d in by_residual if d > 0 for s in (1, -1) if 1 + s * d / root > 0]
    edges += [(1 + s * b) ** (1 / n) - 1 for s in (1, -1) if 1 + s * b > 0]  # |det - 1| = b
    return [0.0] + [e * f for e in edges for f in (0.9, 1.1)]


def _reflections(rng, n: int, p: int, k: int) -> np.ndarray:
    """k rotations (I - 2 P) J with rank P = p - 1 or p + 1, in turn: symmetric involutions of det -1."""
    J = np.concatenate([-np.ones(p), np.ones(n - p)])
    out = np.empty((k, n, n))
    for i in range(k):
        r = p - 1 if i % 2 else p + 1
        F = sample_rotations(rng, n, 1)[0][:, :r]
        out[i] = (np.eye(n) - 2.0 * F @ F.T) * J
    return out


def _cartan_motions(rng, n: int, p: int, k: int) -> tuple:
    """(R, X) of k motions of S_p, from ``rho_inv`` of sampled bundle points."""
    F, Y = sample_bundle_points(rng, n, p, k)
    m = bn.rho_inv(bn.bundle_point(gr.plane_from_frame(F), Y)).motion
    return np.array(m.R), np.array(m.X)


@pytest.fixture
def dets(monkeypatch) -> list:
    """The shapes of the LU ``det``s run while the test runs."""
    seen = []
    spy(monkeypatch, lambda decomposition, a: seen.append(a.shape), ("det",))
    return seen


# Haar draws --------------------------------------------------------------


@pytest.mark.parametrize("seed", range(20))
def test_haar_draws_are_the_lu_rule_bytes(seed):
    for n in range(1, 129):
        got = sample_rotations(make_rng(seed, n), n, 3)
        assert got.tobytes() == _rotations_oracle(make_rng(seed, n), n, 3).tobytes(), n


@pytest.mark.parametrize("count", [(), 1, (2, 3)], ids=str)
@pytest.mark.parametrize("n", [1, 2, 3, 8])
def test_haar_draws_of_any_count_run_no_lu(dets, n, count):
    got = sample_rotations(make_rng(51, n), n, count)
    assert not dets
    assert got.tobytes() == _rotations_oracle(make_rng(51, n), n, count).tobytes()


def test_a_negative_zero_on_the_diagonal_counts_as_a_sign_flip():
    """``np.copysign`` negates the column of a -0.0 on R's diagonal, so the parity must count it: a 1 x 1 draw of
    -0.0 is the fixed column -1, which the last-column flip turns into +1, as the LU rule does."""
    class Zero:
        def standard_normal(self, shape):
            return np.full(shape, -0.0)

    assert sample_rotations(Zero(), 1, 2).tobytes() == _rotations_oracle(Zero(), 1, 2).tobytes()
    assert (sample_rotations(Zero(), 1, 2) == 1.0).all()


# The Cartan certificates ---------------------------------------------------


@pytest.mark.parametrize("orth", ORTH, ids=str)
@pytest.mark.parametrize("n, p", SHAPES)
def test_the_certificates_decide_as_the_lu_rule(dets, n, p, orth):
    sig = Signature(p, n - p)
    b = orth * n
    rng = make_rng(51, n)
    R = gr._embed_rotation(gr.plane_from_frame(sample_frames(rng, n, p, 4)).projector, sig)
    R[2] = _reflections(rng, n, p, 1)[0]  # the stacks' one det -1 element
    MR, MX = _cartan_motions(rng, n, p, 4)
    MR[2] = R[2]
    seen = set()
    for tol in (Tolerances(orth=orth), Tolerances(orth=orth, invol=0.5, fiber=0.5)):
        for eps in _scales(n, b):
            scaled, motions = (1.0 + eps) * R, (1.0 + eps) * MR
            for i in (0, 2):
                seen.add(_check_rotation(scaled[i], sig, tol, dets))
                seen.add(_check_motion(motions[i], MX[i], sig, tol, dets))
            seen.add(_check_rotation(scaled, sig, tol, dets))
            seen.add(_check_motion(motions, MX, sig, tol, dets))
            one, one_motion = R.copy(), MR.copy()
            one[1], one_motion[1] = scaled[1], motions[1]
            seen.add(_check_rotation(one, sig, tol, dets))
            seen.add(_check_motion(one_motion, MX, sig, tol, dets))
    assert (True, DET) in seen  # a det -1 element always runs the LU
    if mc._decided_defect(0.0, b, n) < math.inf:
        assert (False, "accepted") in seen
    else:
        assert (True, "accepted") in seen
        assert not any(lu is False and outcome != "matrix is not orthogonal within tolerance" for lu, outcome in seen)


@pytest.mark.parametrize("n, p", SHAPES)
def test_the_sign_bound_runs_the_lu_on_its_far_side(dets, n, p):
    """Every |w| is 1 up to rounding, so ``tol.invol`` near 1 crosses the sign bound, min |w| > invol +
    2 n^2 eps max |w|: just below it the count decides, and just above it, or inside its rounding allowance, the LU
    runs. The outcome is the oracle's on every side."""
    sig = Signature(p, n - p)
    rng = make_rng(52, n)
    R = gr._embed_rotation(gr.plane_from_frame(sample_frames(rng, n, p, 3)).projector, sig)
    MR, MX = _cartan_motions(rng, n, p, 3)
    for R_, X_ in ((R, None), (R[1], None), (MR, MX)):
        a = np.abs(mc._eigh(R_ * sig._signs)[0])
        rounding = n * n * EPS * a.max()
        edge = a.min() - 2.0 * rounding
        for invol, lu in ((edge * (1.0 - 1e-6), False), (edge * (1.0 + 1e-6), True), (a.min() - rounding, True)):
            tol = Tolerances(invol=invol, fiber=0.5)
            got = _check_rotation(R_, sig, tol, dets) if X_ is None else _check_motion(R_, X_, sig, tol, dets)
            assert got == (lu, "accepted"), invol


def test_a_reflection_whose_count_is_p_under_a_loose_involution_bound_still_raises(dets):
    """R = [[0, 1], [1, 0]] at (2, 1) is orthogonal with det -1. S = R J = [[0, 1], [-1, 0]] is far from a
    symmetric involution, but under ``tol.invol`` = 3 it passes the S_p0 check, and ``eigh`` of its lower triangle
    counts one negative eigenvalue. The sign bound (min |w| = 1 is not above 3) sends it to the LU, which raises
    the determinant's error, as the oracle does; the count alone would accept it."""
    sig, tol = Signature(1, 1), Tolerances(invol=3.0)
    R = np.array([[0.0, 1.0], [1.0, 0.0]])
    assert (np.linalg.eigvalsh(R * sig._signs) < 0).sum() == 1
    assert _check_rotation(R, sig, tol, dets) == (True, DET)
    assert _check_motion(R, np.zeros(2), sig, tol, dets) == (True, DET)
    assert _check_rotation(np.stack([np.eye(2)[::-1] * [[-1, 1]], R]), sig, tol, dets) == (True, DET)


@pytest.mark.parametrize("n, p", SHAPES)
def test_det_minus_one_elements_raise_the_determinant_error(dets, n, p):
    sig = Signature(p, n - p)
    bad = _reflections(make_rng(53, n), n, p, 4)
    for R in bad:
        assert np.allclose(R @ R.T, np.eye(n)) and np.linalg.det(R) < 0
        assert _check_rotation(R, sig, Tolerances(), dets) == (True, DET)
        assert _check_motion(R, np.zeros(n), sig, Tolerances(), dets) == (True, DET)
    assert _check_rotation(bad, sig, Tolerances(), dets) == (True, DET)


def _later_failures(rng, n: int, p: int) -> dict:
    """name -> (R, X, tol): a stack of four motions whose element 1 fails that later check of the certificate."""
    sig = Signature(p, n - p)
    R, X = _cartan_motions(rng, n, p, 4)
    e = rng.standard_normal(n)
    off = e + (R[1] * sig._signs) @ e  # (I + S) e = 2 (I - P) e, off the plane of element 1
    off /= np.linalg.norm(off)
    haar = R.copy()
    haar[1] = sample_rotations(rng, n, 1)[0]  # in SO(n), not in S_p0
    big, sigma_off, fiber_off = X.copy(), X.copy(), X.copy()
    big[1, 0] = 1e200
    sigma_off[1] += off
    fiber_off[1] += 1e-6 * off
    return {
        "S_p0": (haar, X, Tolerances()),
        "translation": (R, big, Tolerances()),
        "sigma": (R, sigma_off, Tolerances()),
        "fiber": (R, fiber_off, Tolerances(invol=1e-3)),
    }


@pytest.mark.parametrize("later", ["S_p0", "translation", "sigma", "fiber"])
@pytest.mark.parametrize("n, p", SHAPES)
def test_a_det_minus_one_element_raises_before_an_earlier_element_that_fails_a_later_check(dets, n, p, later):
    sig = Signature(p, n - p)
    rng = make_rng(54, n)
    R, X, tol = _later_failures(rng, n, p)[later]
    reflection = _reflections(rng, n, p, 1)[0]
    alone = _outcome(lambda: _certified_motion(R, X, sig, tol))[0]
    assert "index': 1" in alone[2], alone  # the later check fails at element 1
    assert _check_motion(R, X, sig, tol, dets)[1] == alone[1]
    after = R.copy()
    after[2] = reflection
    assert _check_motion(after, X, sig, tol, dets) == (True, DET)
    assert "index': 2" in _outcome(lambda: _certified_motion(after, X, sig, tol))[0][2]
    if later == "S_p0":
        assert _check_rotation(after, sig, tol, dets) == (True, DET)
        assert "index': 2" in _outcome(lambda: _certified_rotation(after, sig, tol))[0][2]


@pytest.mark.parametrize("n, p", SHAPES)
def test_generic_certificates_run_no_lu(dets, n, p):
    sig = Signature(p, n - p)
    rng = make_rng(55, n)
    R = gr._embed_rotation(gr.plane_from_frame(sample_frames(rng, n, p, 5)).projector, sig)
    MR, MX = _cartan_motions(rng, n, p, 5)
    CartanRotation(R, sig), CartanRotation(R[0], sig)
    CartanMotion(Motion(MR, MX), sig), CartanMotion(Motion(MR[0], MX[0]), sig)
    assert not dets


# The domain test -----------------------------------------------------------

BAD = [math.nan, math.inf, -math.inf, 1.2e150, -1.2e150]


def _domain_outcomes(x: np.ndarray, core: int) -> tuple:
    """The outcome of ``_in_domain`` on x, which must be its oracle's."""
    want = _outcome(lambda: (_in_domain_oracle(x, "operand", core),))[0]
    assert _outcome(lambda: (mc._in_domain(x, "operand", core),))[0] == want
    return want


def _put(x: np.ndarray, at: tuple, value: float) -> np.ndarray:
    y = x.copy()
    y[at] = value
    return y


@pytest.mark.parametrize("core", [0, 1, 2])
@pytest.mark.parametrize("lead", [(6,), (2, 3)], ids=str)
def test_a_stack_out_of_the_domain_raises_at_its_first_bad_element(core, lead):
    x = make_rng(56, core).standard_normal((*lead, *(4,) * core))
    assert _domain_outcomes(x, core)[0] == x.tobytes()
    for k in np.ndindex(lead):
        for value in BAD:
            y = _put(x, k + (1,) * core, value)
            want = _domain_outcomes(y, core)
            assert want[0] is DimensionMismatchError and "max_abs" in want[2]
            for j in np.ndindex(lead):  # a second bad element, before the first or after it
                for second in BAD if j != k else ():
                    got = _domain_outcomes(_put(y, j + (0,) * core, second), core)
                    first = min(j, k)
                    assert f"'index': {first[0] if len(first) == 1 else first}" in got[2]


def test_an_empty_stack_passes_the_domain_test():
    for core, shape in ((0, (0,)), (1, (0, 3)), (2, (0, 3, 3))):
        x = np.zeros(shape)
        assert mc._in_domain(x, "operand", core) is x
        assert _domain_outcomes(x, core)[0] == x.tobytes()


def test_the_public_checks_raise_the_oracle_error():
    x = make_rng(57, 0).standard_normal((5, 3, 3))
    x[3, 2, 1] = 1.2e150
    x[4, 0, 0] = math.nan
    want = _outcome(lambda: (_in_domain_oracle(x, "rotation", 2),))[0]
    got = _outcome(lambda: (mc.check_finite_matrix(x, (3, 3), "rotation", None),))[0]
    assert got == want and "'index': 3" in got[2] and "'max_abs': 1.2e+150" in got[2]
    v = x[:, 0]
    want = _outcome(lambda: (_in_domain_oracle(v, "translation", 1),))[0]
    assert _outcome(lambda: (mc.check_finite_vector(v, 3, "translation", None),))[0] == want
    assert "'index': 4" in want[2] and "'max_abs': nan" in want[2]
