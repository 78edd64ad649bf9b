"""Adversarial spectra for exp/log on SE(n), the canonical forms and the bundle.

Each case builds a screw or a rotation from chosen angles in a seeded random
basis, so the hard inputs are hit on purpose: angles across the 1e-4 Taylor
switch of the half-angle factor, repeated angles and clusters 1e-9 wide
(one of them at cos(theta) = -1/2), angles just inside and just outside
``tol.branch`` of pi, exactly pi, angles near 2 pi for ``y_omega_solve``,
angles beyond pi up to 8 pi, translations from 1e6 to 1e9, and n up to 32.
For the bundle, the identities that ``verify`` checks in place of in-call
second routes are asserted on large translations and fibers, and on
generators whose largest singular value reaches pi - 3e-6, where the
principal angles approach the cut locus at pi/2. ``dp_exp``/``dp_log0`` get
chosen principal angles: the largest within 10 ``tol.branch`` of pi/2 on
either side, clusters 1e-9 wide, zeros, angles down to 1e-8, and p = 1 or
p = n - 1.

The decompositions are not unique on these inputs, so every assertion is on
a product (exp of log, a reconstruction, a roundtrip) or on the typed error.
The bounds are the ones ``verify`` uses, taken relative to 1 + |translation|
where the translation is large. Angles beyond pi, which ``verify`` does not
draw, get a bound scaled by n (1 + theta_max)^2 (``WIDE``).
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cartanbundle import (
    BranchAmbiguityError,
    CutLocusError,
    DpElement,
    DpGenerator,
    Motion,
    Screw,
    Signature,
    SingularMapError,
    bundle_point,
    canonical_rotation_form,
    dp_exp,
    dp_exp_full,
    dp_log0,
    dp_log_full,
    plane_from_span,
    rho_inv,
    se_exp,
    se_inv,
    se_log,
    se_mul,
    sigma,
    skew_canonical_form,
    so_exp,
    so_log,
    tau,
    twisted_act,
    y_omega,
    y_omega_solve,
)
from cartanbundle.sampling import make_rng, sample_rotation

from oracles import homogeneous_exp_oracle

settings.register_profile("edges", derandomize=True, max_examples=25, deadline=None)
settings.load_profile("edges")

BRANCH = 1e-6  # the default tol.branch
SPLIT_EDGE = 2 * math.pi / 3  # cos(theta) = -1/2


def _basis(n, seed):
    return sample_rotation(make_rng(seed, 0), n)


def _skew(angles, n, seed):
    """Q blockdiag(Pi(theta_1), ..., Pi(theta_k), 0) Q^T for a seeded Q in SO(n)."""
    D = np.zeros((n, n))
    for i, t in enumerate(angles):
        D[2 * i + 1, 2 * i], D[2 * i, 2 * i + 1] = t, -t
    Q = _basis(n, seed)
    W = Q @ D @ Q.T
    return 0.5 * (W - W.T)


def _rotation(angles, n, seed):
    """Q blockdiag(R(theta_1), ..., R(theta_k), I) Q^T for a seeded Q in SO(n)."""
    D = np.eye(n)
    for i, t in enumerate(angles):
        c, s = math.cos(t), math.sin(t)
        D[2 * i : 2 * i + 2, 2 * i : 2 * i + 2] = [[c, -s], [s, c]]
    Q = _basis(n, seed)
    return Q @ D @ Q.T


def _vector(n, scale, seed):
    x = make_rng(seed, 1).standard_normal(n)
    return scale * x / np.linalg.norm(x)


@st.composite
def spectra(draw, top):
    """(n, angles, seed): up to n // 2 angles in (0, top] from one edge family."""
    n = draw(st.integers(2, 32))
    k = draw(st.integers(1, n // 2))
    family = draw(st.sampled_from(["taylor", "repeated", "cluster", "generic"]))
    if family == "taylor":  # across the 1e-4 switch
        angles = draw(st.lists(st.floats(5e-5, 2e-4), min_size=1, max_size=k))
    elif family == "generic":
        angles = draw(st.lists(st.floats(1e-3, top), min_size=1, max_size=k))
    else:
        base = draw(st.sampled_from([1e-4, 1.0, SPLIT_EDGE, top]))
        step = 0.0 if family == "repeated" else 1e-9
        angles = [min(base + i * step, top) for i in range(k)]
    return n, angles, draw(st.integers(0, 2**32 - 1))


scales = st.sampled_from([1.0, 1e6, 1e7, 1e8, 1e9])


@given(spectra(math.pi), scales)
def test_exp_matches_series(case, scale):
    n, angles, seed = case
    omega, v = _skew(angles, n, seed), _vector(n, scale, seed)
    g = se_exp(Screw(omega, v))
    assert np.linalg.norm(g.homogeneous() - homogeneous_exp_oracle(omega, v)) <= 1e-9 * (1 + scale)
    assert np.linalg.norm(g.R - so_exp(omega)) <= 1e-10 * n
    assert np.linalg.norm(omega @ y_omega(omega, v) - (g.R - np.eye(n)) @ v) <= 1e-10 * (1 + scale)


@given(spectra(math.pi), scales)
def test_y_omega_roundtrip(case, scale):
    n, angles, seed = case
    omega, v = _skew(angles, n, seed), _vector(n, scale, seed)
    assert np.linalg.norm(y_omega_solve(omega, y_omega(omega, v)) - v) <= 1e-9 * (1 + scale)


@given(spectra(math.pi - 1e-3), scales)
def test_log_exp_roundtrip(case, scale):
    n, angles, seed = case
    xi = Screw(_skew(angles, n, seed), _vector(n, scale, seed))
    g = se_exp(xi)
    back = se_log(g)
    # Inside the branch the principal log is unique, so it returns xi itself.
    assert np.linalg.norm(back.omega - xi.omega) <= 1e-8
    assert np.linalg.norm(back.v - xi.v) <= 1e-8 * (1 + scale)
    assert np.linalg.norm(se_exp(back).homogeneous() - g.homogeneous()) <= 1e-8 * (1 + scale)


@given(spectra(math.pi))
def test_canonical_forms_reconstruct(case):
    n, angles, seed = case
    W = _skew(angles, n, seed)
    form = skew_canonical_form(W)
    assert np.linalg.norm(form.skew_matrix() - W) <= 1e-10 * n * max(1.0, np.linalg.norm(W))
    R = _rotation(angles, n, seed)
    form = canonical_rotation_form(R)
    assert np.linalg.norm(form.rotation_matrix() - R) <= 1e-10 * n
    assert np.linalg.norm(form.Q.T @ form.Q - np.eye(n)) <= 1e-10 * n
    assert abs(np.linalg.det(form.Q) - 1.0) <= 1e-10 * n


@st.composite
def near_pi(draw, lo, hi):
    """(n, angles, seed): one angle pi - delta, delta in [lo, hi] * tol.branch,
    with up to two more pairs, repeated at it or spread below it."""
    n = draw(st.integers(2, 32))
    delta = BRANCH * draw(st.floats(lo, hi))
    others = draw(st.lists(st.sampled_from([0.0, 1e-9, 0.5]), max_size=min(2, n // 2 - 1)))
    return n, [math.pi - delta - d for d in [0.0] + others], draw(st.integers(0, 2**32 - 1))


@given(near_pi(0.0, 0.9), scales)
def test_log_raises_just_inside_the_branch(case, scale):
    n, angles, seed = case
    g = Motion(_rotation(angles, n, seed), _vector(n, scale, seed))
    with pytest.raises(BranchAmbiguityError):
        se_log(g)
    back = se_log(g, allow_pi=True)
    assert np.linalg.norm(se_exp(back).homogeneous() - g.homogeneous()) <= 1e-8 * (1 + scale)


@given(near_pi(1.1, 100.0), scales)
def test_log_accepts_just_outside_the_branch(case, scale):
    n, angles, seed = case
    g = Motion(_rotation(angles, n, seed), _vector(n, scale, seed))
    back = se_log(g)
    assert np.linalg.norm(se_exp(back).homogeneous() - g.homogeneous()) <= 1e-8 * (1 + scale)
    assert np.linalg.norm(so_exp(so_log(g.R)) - g.R) <= 1e-8


@given(st.integers(2, 32), st.integers(1, 16), st.integers(0, 2**32 - 1), scales)
def test_log_at_exactly_pi(n, pairs, seed, scale):
    k = min(pairs, n // 2)
    g = Motion(_rotation([math.pi] * k, n, seed), _vector(n, scale, seed))
    with pytest.raises(BranchAmbiguityError):
        se_log(g)
    back = se_log(g, allow_pi=True)
    assert np.linalg.norm(se_exp(back).homogeneous() - g.homogeneous()) <= 1e-8 * (1 + scale)
    assert np.linalg.norm(so_exp(so_log(g.R, allow_pi=True)) - g.R) <= 1e-8


@given(st.integers(2, 32), st.floats(0.0, 5e-9), st.integers(0, 2**32 - 1))
def test_y_omega_solve_singular_near_two_pi(n, delta, seed):
    omega = _skew([2 * math.pi - delta], n, seed)
    with pytest.raises(SingularMapError):
        y_omega_solve(omega, _vector(n, 1.0, seed))


# The backward error of the eigh of omega^T omega grows with |omega|_2^2, so
# the bound is WIDE n (1 + theta_max)^2, times 1 + |v| for the translation.
# Worst seen over 1500 seeded draws from the distribution of wide_spectra,
# in those units: 2.9e-16 for so_exp, 9.2e-17 for the Y_omega identity and
# 2.3e-16 for the y_omega_solve roundtrip.
WIDE = 2e-15


@st.composite
def wide_spectra(draw):
    """(n, angles, seed): up to n // 2 angles in (0.1, 8 pi - 0.1), each at
    least 0.1 from every multiple of 2 pi, where Y_omega is singular."""
    n = draw(st.integers(2, 32))
    k = draw(st.integers(1, n // 2))
    turns = draw(st.lists(st.integers(0, 3), min_size=k, max_size=k))
    offsets = draw(st.lists(st.floats(0.1, 2 * math.pi - 0.1), min_size=k, max_size=k))
    angles = [2 * math.pi * m + t for m, t in zip(turns, offsets)]
    return n, angles, draw(st.integers(0, 2**32 - 1))


@given(wide_spectra(), st.sampled_from([1.0, 1e6]))
def test_exp_beyond_pi(case, scale):
    n, angles, seed = case
    omega, v = _skew(angles, n, seed), _vector(n, scale, seed)
    bound = WIDE * n * (1 + max(angles)) ** 2
    R = so_exp(omega)
    assert np.linalg.norm(R - _rotation(angles, n, seed)) <= bound
    Y = y_omega(omega, v)
    assert np.linalg.norm(omega @ Y - (R - np.eye(n)) @ v) <= bound * (1 + scale)
    assert np.linalg.norm(y_omega_solve(omega, Y) - v) <= bound * (1 + scale)


CUT = math.pi - 3e-6  # largest |B|_2: principal angles up to pi/2 - 1.5e-6
seeds = st.integers(0, 2**32 - 1)
large = st.sampled_from([1e6, 1e7, 1e8, 1e9])


@st.composite
def signatures(draw):
    n = draw(st.integers(2, 32))
    p = draw(st.integers(1, n - 1))
    return Signature(p, n - p)


def _dist(a, b):
    return np.linalg.norm(a.homogeneous() - b.homogeneous())


@given(signatures(), seeds, large, large)
def test_twisted_act_matches_group_arithmetic(sig, seed, x_scale, y_scale):
    n = sig.n
    a = Motion(_basis(n, seed), _vector(n, x_scale, seed))
    plane = plane_from_span(make_rng(seed, 2).standard_normal((n, sig.p)))
    fiber = plane.projector @ make_rng(seed, 3).standard_normal(n)
    g = rho_inv(bundle_point(plane, y_scale * fiber / np.linalg.norm(fiber))).motion
    generic = se_mul(se_mul(a, g), sigma(se_inv(a), sig))
    bound = 1e-11 * n * (1 + np.linalg.norm(a.X) + np.linalg.norm(g.X))
    assert _dist(twisted_act(a, g, sig), generic) <= bound


def _dp_element(sig, top, v_scale, seed):
    """A d_p element with |B|_2 = top and |v| = v_scale, in a seeded basis."""
    B = make_rng(seed, 2).standard_normal((sig.q, sig.p))
    B *= top / np.linalg.norm(B, 2)
    return DpElement(DpGenerator(p=sig.p, q=sig.q, B=B), _vector(sig.p, v_scale, seed))


dp_cases = st.tuples(
    signatures(),
    st.one_of(st.floats(1e-3, CUT), st.just(CUT)),
    st.sampled_from([1.0, 1e3, 1e6]),
    seeds,
)


@given(dp_cases)
def test_dp_exp_full_matches_the_tau_route(case):
    sig, top, v_scale, seed = case
    xi = _dp_element(sig, top, v_scale, seed)
    s = dp_exp_full(xi)
    screw = xi.screw()
    via_tau = tau(se_exp(Screw(0.5 * screw.omega, 0.5 * screw.v)), sig)
    assert _dist(s.motion, via_tau.motion) <= 1e-10 * sig.n * (1 + np.linalg.norm(s.motion.X))


@given(dp_cases)
def test_dp_log_full_roundtrip(case):
    sig, top, v_scale, seed = case
    xi = _dp_element(sig, top, v_scale, seed)
    s = dp_exp_full(xi)
    try:
        back = dp_log_full(s)
    except CutLocusError:
        # allowed only for a principal angle within tol.branch of pi/2
        assert 0.5 * top >= 0.5 * math.pi - BRANCH
        return
    assert np.linalg.norm(back.gen.B - xi.gen.B) <= 1e-8
    assert np.linalg.norm(back.v - xi.v) <= 1e-8 * (1 + np.linalg.norm(s.motion.X))


# generic angles, and tiny ones whose cosines lie within a few eps of 1
phis = st.one_of(st.floats(1e-3, 1.5), st.floats(-8.0, -3.0).map(lambda e: 10.0**e))


@st.composite
def principal_angle_cases(draw):
    """(sig, phi, seed): R = dp_exp(U diag(2 phi) V^T) has principal angles phi."""
    n = draw(st.integers(2, 32))
    p = draw(st.one_of(st.just(1), st.just(n - 1), st.integers(1, n - 1)))
    k = min(p, n - p)
    family = draw(st.sampled_from(["cut", "cluster", "zero", "generic"]))
    if family == "cut":  # the largest angle on either side of the cut locus
        rest = draw(st.lists(phis, min_size=k - 1, max_size=k - 1))
        phi = [0.5 * math.pi + draw(st.floats(-10 * BRANCH, 10 * BRANCH))] + rest
    elif family == "cluster":
        base = draw(st.sampled_from([1e-4, 0.7, 0.5 * math.pi - 20 * BRANCH]))
        phi = [base + i * 1e-9 for i in range(k)]
    else:
        zeros = draw(st.integers(1 if family == "zero" else 0, k))
        phi = [0.0] * zeros + draw(st.lists(phis, min_size=k - zeros, max_size=k - zeros))
    return Signature(p, n - p), np.array(phi), draw(seeds)


@settings(max_examples=100)
@given(principal_angle_cases())
def test_dp_log0_reproduces_the_rotation(case):
    sig, phi, seed = case
    rng = make_rng(seed, 2)
    U = np.linalg.qr(rng.standard_normal((sig.q, phi.size)))[0]
    V = np.linalg.qr(rng.standard_normal((sig.p, phi.size)))[0]
    R = dp_exp(DpGenerator(p=sig.p, q=sig.q, B=(U * (2 * phi)) @ V.T))
    try:
        back = dp_log0(R)
    except CutLocusError:
        # allowed only where an angle of the plane, min(phi, pi - phi), is within tol.branch of pi/2
        assert np.max(np.minimum(phi, math.pi - phi)) >= 0.5 * math.pi - BRANCH - 1e-12
        return
    assert np.linalg.norm(dp_exp(back).mat - R.mat) <= 1e-8
