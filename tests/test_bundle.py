import dataclasses
import math

import numpy as np
import pytest

from cartanbundle import (
    CartanMotion,
    CartanRotation,
    CutLocusError,
    DimensionMismatchError,
    DpElement,
    DpGenerator,
    IllConditionedSpectrumError,
    Motion,
    NearSingularIsomorphismError,
    NotInCartanModelError,
    Signature,
    bundle_act,
    bundle_point,
    double_projection,
    dp_exp,
    dp_exp_full,
    dp_log0,
    dp_log_full,
    find_transporter,
    in_Q,
    is_fixed_point,
    rho,
    rho0,
    rho_inv,
    se_inv,
    se_mul,
    sigma,
    so_exp,
    tau,
    twisted_act,
    coordinate_plane,
    plane_equal,
)
from cartanbundle.sampling import (
    sample_bundle_point,
    sample_cartan_motion,
    sample_dp_element,
    sample_fixed_point,
    sample_motion,
    sample_rotation,
)

from oracles import dp_log_v_oracle, svd_projector_oracle


def rot2(theta):
    c, s = math.cos(theta), math.sin(theta)
    return np.array([[c, -s], [s, c]])


SIG22 = Signature(2, 2)

DP_SHAPES = [(2, 2), (3, 1), (1, 3), (4, 2)]


def _dp_cases(rng, p, q, count):
    return [sample_dp_element(rng, p, q, bound=math.pi - 0.1) for _ in range(count)]


def _fixed_dp_cases():
    """A rank-deficient B, and a B of spectral norm pi - 0.1 off the axes."""
    B_far = rot2(0.4) @ np.diag([math.pi - 0.1, 1.3]) @ rot2(0.4)
    return [
        DpElement(DpGenerator(p=2, q=2, B=np.array([[3.0, 0.0], [0.0, 0.0]])), np.array([0.7, -1.2])),
        DpElement(DpGenerator(p=2, q=2, B=B_far), np.array([-0.4, 1.9])),
    ]


def _dp_route_cases(rng):
    cases = [xi for p, q in DP_SHAPES for xi in _dp_cases(rng, p, q, 10)]
    return cases + _fixed_dp_cases()


class TestSigma:
    def test_translation(self):
        sig = Signature(1, 2)
        g = sigma(Motion(np.eye(3), np.array([1.0, 2.0, 3.0])), sig)
        assert np.allclose(g.R, np.eye(3))
        assert np.allclose(g.X, [-1.0, 2.0, 3.0])

    def test_involutive_exact(self, rng):
        g = sample_motion(rng, 4)
        gg = sigma(sigma(g, SIG22), SIG22)
        assert np.array_equal(gg.R, g.R) and np.array_equal(gg.X, g.X)

    def test_automorphism(self, rng):
        for _ in range(30):
            g, h = sample_motion(rng, 4), sample_motion(rng, 4)
            lhs = sigma(se_mul(g, h), SIG22)
            rhs = se_mul(sigma(g, SIG22), sigma(h, SIG22))
            assert np.linalg.norm(lhs.homogeneous() - rhs.homogeneous()) <= 1e-12 * 4


NON_FINITE = pytest.mark.parametrize("bad", [math.nan, math.inf], ids=["nan", "inf"])


def _with_entry(a, index, value):
    a = np.array(a, dtype=float)
    a[index] = value
    return a


class TestFixedPoints:
    def test_block_motion_is_fixed(self, rng):
        for _ in range(30):
            g = sample_fixed_point(rng, SIG22)
            assert is_fixed_point(g, SIG22)
            assert np.linalg.norm(sigma(g, SIG22).homogeneous() - g.homogeneous()) <= 1e-12

    def test_translation_in_plane_not_fixed(self):
        sig = Signature(1, 1)
        assert not is_fixed_point(Motion(np.eye(2), np.array([1.0, 0.0])), sig)

    def test_generic_rotation_not_fixed(self):
        sig = Signature(1, 1)
        assert not is_fixed_point(Motion(rot2(0.9), np.zeros(2)), sig)

    @NON_FINITE
    def test_rejects_non_finite_motion(self, bad):
        for g in (Motion(np.eye(4), _with_entry(np.zeros(4), 2, bad)),
                  Motion(_with_entry(np.eye(4), (0, 3), bad), np.zeros(4))):
            with pytest.raises(DimensionMismatchError):
                is_fixed_point(g, SIG22)

    def test_tau_constant_on_cosets(self, rng):
        g = sample_motion(rng, 4)
        h = sample_fixed_point(rng, SIG22)
        t1 = tau(g, SIG22)
        t2 = tau(se_mul(g, h), SIG22)
        assert np.linalg.norm(t1.motion.homogeneous() - t2.motion.homogeneous()) <= 1e-10


class TestQ:
    def test_identity(self):
        assert in_Q(Motion(np.eye(4), np.zeros(4)), SIG22)

    def test_translation_in_reference_plane(self):
        assert in_Q(Motion(np.eye(4), np.array([1.0, 0, 0, 0])), SIG22)

    def test_translation_in_complement_not_in_q(self):
        assert not in_Q(Motion(np.eye(4), np.array([0, 0, 0, 1.0])), SIG22)

    def test_invariance(self, rng):
        for _ in range(50):
            s = sample_cartan_motion(rng, 4, 2)
            a = sample_motion(rng, 4)
            assert in_Q(twisted_act(a, s.motion, SIG22), SIG22)


class TestTwistedAction:
    def test_identity_acts_trivially(self, rng):
        g = sample_motion(rng, 4)
        acted = twisted_act(Motion(np.eye(4), np.zeros(4)), g, SIG22)
        assert np.allclose(acted.homogeneous(), g.homogeneous())

    def test_orbit_of_identity(self, rng):
        a = sample_motion(rng, 4)
        acted = twisted_act(a, Motion(np.eye(4), np.zeros(4)), SIG22)
        J = SIG22.matrix
        core = a.R @ J @ a.R.T
        assert np.allclose(acted.R, core @ J, atol=1e-12)
        assert np.allclose(acted.X, a.X - core @ a.X, atol=1e-12)

    def test_action_law(self, rng):
        for _ in range(30):
            a1, a2 = sample_motion(rng, 4), sample_motion(rng, 4)
            g = sample_cartan_motion(rng, 4, 2).motion
            lhs = twisted_act(se_mul(a1, a2), g, SIG22)
            rhs = twisted_act(a1, twisted_act(a2, g, SIG22), SIG22)
            assert np.linalg.norm(lhs.homogeneous() - rhs.homogeneous()) <= 1e-10

    @NON_FINITE
    def test_rejects_non_finite_motion(self, bad):
        e = Motion(np.eye(4), np.zeros(4))
        for a, g in ((e, Motion(np.eye(4), _with_entry(np.zeros(4), 0, bad))),
                     (Motion(np.eye(4), _with_entry(np.zeros(4), 3, bad)), e),
                     (Motion(_with_entry(np.eye(4), (1, 2), bad), np.zeros(4)), e)):
            with pytest.raises(DimensionMismatchError):
                twisted_act(a, g, SIG22)


class TestTau:
    def test_translation(self, rng):
        X = rng.standard_normal(4)
        t = tau(Motion(np.eye(4), X), SIG22)
        expected = X.copy()
        expected[:2] *= 2
        expected[2:] = 0
        assert np.allclose(t.motion.R, np.eye(4))
        assert np.allclose(t.motion.X, expected, atol=1e-12)

    def test_pure_rotation(self, rng):
        A = sample_rotation(rng, 4)
        t = tau(Motion(A, np.zeros(4)), SIG22)
        J = SIG22.matrix
        assert np.allclose(t.motion.R, A @ J @ A.T @ J, atol=1e-12)
        assert np.allclose(t.motion.X, 0, atol=1e-12)

    def test_image_in_q(self, rng):
        for _ in range(50):
            g = sample_motion(rng, 4)
            t = tau(g, SIG22)
            assert in_Q(t.motion, SIG22)
            d = sigma(t.motion, SIG22).homogeneous() - se_inv(t.motion).homogeneous()
            assert np.linalg.norm(d) <= 1e-10


class TestDoubleProjection:
    def test_identity_rotation(self, rng):
        X = rng.standard_normal(4)
        D = double_projection(np.eye(4), X, SIG22)
        expected = np.concatenate([2 * X[:2], np.zeros(2)])
        assert np.allclose(D, expected)

    def test_orthogonal_vector(self, rng):
        A = sample_rotation(rng, 4)
        X = A[:, 3]  # orthogonal to the moved plane
        assert np.allclose(double_projection(A, X, SIG22), 0, atol=1e-12)

    def test_matches_projector_oracle(self, rng):
        for _ in range(50):
            A = sample_rotation(rng, 4)
            X = rng.standard_normal(4)
            D = double_projection(A, X, SIG22)
            P = svd_projector_oracle(A[:, :2])
            assert np.linalg.norm(D - 2 * P @ X) <= 1e-10

    @NON_FINITE
    def test_rejects_non_finite_vector(self, bad):
        with pytest.raises(DimensionMismatchError):
            double_projection(np.eye(4), _with_entry(np.zeros(4), 0, bad), SIG22)
        with pytest.raises(DimensionMismatchError):
            double_projection(_with_entry(np.eye(4), (2, 2), bad), np.zeros(4), SIG22)


class TestRho:
    def test_identity(self):
        s = CartanMotion.certify(Motion(np.eye(4), np.zeros(4)), SIG22)
        b = rho(s)
        assert np.allclose(b.plane.projector, np.diag([1.0, 1, 0, 0]))
        assert np.allclose(b.fiber, 0)

    def test_half_angle_fiber(self):
        theta = 1.1
        sig = Signature(1, 1)
        V = np.array([math.cos(theta / 2), math.sin(theta / 2)])
        Y = 0.7 * V
        s = CartanMotion.certify(Motion(rot2(theta), Y), sig)
        b = rho(s)
        assert np.linalg.norm(b.plane.projector - np.outer(V, V)) <= 1e-10
        assert np.allclose(b.fiber, Y)

    def test_rho_inv_identity(self):
        b = bundle_point(coordinate_plane(4, 2), np.zeros(4))
        s = rho_inv(b)
        assert np.allclose(s.motion.homogeneous(), np.eye(5), atol=1e-12)

    def test_rho_inv_reference_fiber(self, rng):
        Y = np.concatenate([rng.standard_normal(2), np.zeros(2)])
        b = bundle_point(coordinate_plane(4, 2), Y)
        s = rho_inv(b)
        assert np.allclose(s.motion.R, np.eye(4), atol=1e-12)
        assert np.allclose(s.motion.X, Y)
        # sigma(g) = (I, J Y) = (I, -Y) = g^{-1}
        assert in_Q(s.motion, SIG22)

    def test_roundtrips(self, rng):
        for _ in range(50):
            s = sample_cartan_motion(rng, 4, 2)
            s2 = rho_inv(rho(s))
            assert np.linalg.norm(s2.motion.homogeneous() - s.motion.homogeneous()) <= 1e-9
            b = sample_bundle_point(rng, 5, 2)
            b2 = rho(rho_inv(b))
            assert np.linalg.norm(b2.plane.projector - b.plane.projector) <= 1e-9
            assert np.linalg.norm(b2.fiber - b.fiber) <= 1e-9

    def test_fiber_must_lie_in_plane(self):
        with pytest.raises(NotInCartanModelError):
            bundle_point(coordinate_plane(4, 2), np.array([0, 0, 0, 1.0]))


class TestBundleAction:
    def test_identity(self, rng):
        b = sample_bundle_point(rng, 4, 2)
        b2 = bundle_act(Motion(np.eye(4), np.zeros(4)), b, SIG22)
        assert np.allclose(b2.plane.projector, b.plane.projector)
        assert np.allclose(b2.fiber, b.fiber)

    def test_translation_on_reference(self, rng):
        X = rng.standard_normal(4)
        b = bundle_point(coordinate_plane(4, 2), np.zeros(4))
        b2 = bundle_act(Motion(np.eye(4), X), b, SIG22)
        expected = np.concatenate([2 * X[:2], np.zeros(2)])
        assert np.allclose(b2.fiber, expected)

    def test_equivariance(self, rng):
        for _ in range(50):
            s = sample_cartan_motion(rng, 4, 2)
            a = sample_motion(rng, 4)
            acted = CartanMotion.certify(twisted_act(a, s.motion, SIG22), SIG22)
            lhs = rho(acted)
            rhs = bundle_act(a, rho(s), SIG22)
            assert np.linalg.norm(lhs.plane.projector - rhs.plane.projector) <= 1e-9
            assert np.linalg.norm(lhs.fiber - rhs.fiber) <= 1e-9

    def test_action_law(self, rng):
        for _ in range(30):
            a1, a2 = sample_motion(rng, 4), sample_motion(rng, 4)
            b = sample_bundle_point(rng, 4, 2)
            lhs = bundle_act(se_mul(a1, a2), b, SIG22)
            rhs = bundle_act(a1, bundle_act(a2, b, SIG22), SIG22)
            assert np.linalg.norm(lhs.plane.projector - rhs.plane.projector) <= 1e-10
            assert np.linalg.norm(lhs.fiber - rhs.fiber) <= 1e-10


class TestTransporter:
    def test_fixed_point_case(self):
        b = bundle_point(coordinate_plane(4, 2), np.zeros(4))
        a = find_transporter(b, b)
        assert np.allclose(a.homogeneous(), np.eye(5), atol=1e-12)

    def test_fiber_shift(self, rng):
        Y = np.concatenate([rng.standard_normal(2), np.zeros(2)])
        src = bundle_point(coordinate_plane(4, 2), np.zeros(4))
        dst = bundle_point(coordinate_plane(4, 2), Y)
        a = find_transporter(src, dst)
        assert np.allclose(a.X, Y / 2)
        moved = bundle_act(a, src, SIG22)
        assert np.linalg.norm(moved.fiber - Y) <= 1e-12

    def test_random_pairs(self, rng):
        for _ in range(50):
            src = sample_bundle_point(rng, 5, 2)
            dst = sample_bundle_point(rng, 5, 2)
            a = find_transporter(src, dst)
            moved = bundle_act(a, src, Signature(2, 3))
            assert np.linalg.norm(moved.plane.projector - dst.plane.projector) <= 1e-9
            assert np.linalg.norm(moved.fiber - dst.fiber) <= 1e-9


class TestDpFull:
    def test_zero_element(self):
        xi = DpElement(gen=DpGenerator(p=2, q=2, B=np.zeros((2, 2))), v=np.zeros(2))
        s = dp_exp_full(xi)
        assert np.allclose(s.motion.homogeneous(), np.eye(5), atol=1e-12)

    def test_line_bundle_value(self):
        xi = DpElement(gen=DpGenerator(p=1, q=1, B=np.array([[math.pi]])), v=np.array([1.0]))
        s = dp_exp_full(xi)
        assert np.allclose(s.motion.R, -np.eye(2), atol=1e-12)
        assert np.allclose(s.motion.X, [0.0, 2 / math.pi], atol=1e-13)

    @pytest.mark.parametrize("p,q", DP_SHAPES)
    def test_routes_agree(self, rng, p, q):
        for xi in _dp_cases(rng, p, q, 50):
            self._check_routes(xi)

    @pytest.mark.parametrize("case", range(2))
    def test_routes_agree_fixed(self, case):
        self._check_routes(_fixed_dp_cases()[case])

    @staticmethod
    def _check_routes(xi):
        from cartanbundle.liegroup import Screw, se_exp

        sig = Signature(xi.gen.p, xi.gen.q)
        s = dp_exp_full(xi)
        screw = xi.screw()
        half = se_exp(Screw(0.5 * screw.omega, 0.5 * screw.v))
        via_tau = tau(half, sig)
        d = s.motion.homogeneous() - via_tau.motion.homogeneous()
        assert np.linalg.norm(d) <= 1e-10
        generic = se_exp(screw)
        d = s.motion.homogeneous() - generic.homogeneous()
        assert np.linalg.norm(d) <= 1e-10 * sig.n * (1.0 + np.linalg.norm(generic.X))

    def test_log_matches_lstsq_oracle(self, rng):
        for xi in _dp_route_cases(rng):
            s = dp_exp_full(xi)
            xi2 = dp_log_full(s)
            v_ref = dp_log_v_oracle(xi2.gen.embed(), s.motion.X, xi.gen.p)
            assert np.linalg.norm(xi2.v - v_ref) <= 1e-8
            assert np.linalg.norm(xi2.v - xi.v) <= 1e-8
            assert np.linalg.norm(xi2.gen.B - xi.gen.B) <= 1e-8

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_non_finite_generator_rejected(self, bad):
        gen = DpGenerator(p=2, q=2, B=np.array([[bad, 0.0], [0.0, 1.0]]))
        with pytest.raises(DimensionMismatchError):
            dp_exp(gen)
        with pytest.raises(DimensionMismatchError):
            dp_exp_full(DpElement(gen=gen, v=np.zeros(2)))

    def test_log_identity(self):
        s = CartanMotion.certify(Motion(np.eye(4), np.zeros(4)), SIG22)
        xi = dp_log_full(s)
        assert np.allclose(xi.gen.B, 0) and np.allclose(xi.v, 0)

    def test_log_half_angle(self):
        sig = Signature(1, 1)
        theta = math.pi / 2
        f = 2 * math.sin(theta / 2) / theta
        Y = f * np.array([math.cos(theta / 2), math.sin(theta / 2)])
        s = CartanMotion.certify(Motion(rot2(theta), Y), sig)
        xi = dp_log_full(s)
        assert np.allclose(xi.gen.B, [[theta]], atol=1e-12)
        assert np.allclose(xi.v, [1.0], atol=1e-12)

    def test_log_at_cut_locus_raises(self):
        sig = Signature(1, 1)
        s = CartanMotion.certify(Motion(-np.eye(2), np.array([0.0, 2 / math.pi])), sig)
        with pytest.raises(CutLocusError):
            dp_log_full(s)

    @pytest.mark.parametrize("X", [[math.nan, 0, 0, 0], [0, 0, math.inf, 0]], ids=["nan", "inf"])
    def test_log_rejects_non_finite_translation(self, X):
        # No CartanMotion can carry a non-finite translation: construction,
        # the only membership check, rejects it before dp_log_full runs.
        with pytest.raises(DimensionMismatchError):
            CartanMotion(Motion(np.eye(4), np.array(X)), SIG22)

    def test_log_rejects_fiber_outside_image(self):
        # The fiber leaks 3e-8 out of the reference plane: inside the
        # construction bound tol.invol n (1 + |X|), but outside the image of
        # dp_exp_full, so only the residual check can catch it.
        s = CartanMotion.certify(Motion(np.eye(4), np.array([1.0, 0, 3e-8, 0])), SIG22)
        with pytest.raises(NearSingularIsomorphismError):
            dp_log_full(s)

    def test_roundtrip(self, rng):
        for _ in range(50):
            xi = sample_dp_element(rng, 2, 3, bound=math.pi - 0.1)
            s = dp_exp_full(xi)
            xi2 = dp_log_full(s)
            assert np.linalg.norm(xi2.gen.B - xi.gen.B) <= 1e-8
            assert np.linalg.norm(xi2.v - xi.v) <= 1e-8


class TestCartanMotionValidation:
    def test_rejects_generic_motion(self, rng):
        g = sample_motion(rng, 4)
        if in_Q(g, SIG22):  # overwhelmingly unlikely
            return
        with pytest.raises(NotInCartanModelError):
            CartanMotion.certify(g, SIG22)

    def test_rejects_fiber_outside_plane(self):
        with pytest.raises(NotInCartanModelError):
            CartanMotion.certify(Motion(np.eye(4), np.array([0, 0, 1.0, 0])), SIG22)

    def test_rejects_dimension_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            CartanMotion(Motion(np.eye(3), np.zeros(3)), SIG22)
        with pytest.raises(DimensionMismatchError):
            CartanRotation(np.eye(3), SIG22)


def _nan_on_diagonal():
    R = np.eye(4)
    R[1, 1] = math.nan
    return R


_SKEW = np.array([
    [0.0, 0.3, -0.5, 0.2],
    [-0.3, 0.0, 0.7, -0.1],
    [0.5, -0.7, 0.0, 0.4],
    [-0.2, 0.1, -0.4, 0.0],
])

# (R, class raised when constructing the motion (R, 0) or the rotation R).
# Both constructors run the one check: SO(n) first, then S_p0.
UNCERTIFIED_CASES = [
    pytest.param(1.01 * np.eye(4), IllConditionedSpectrumError, id="scaled-identity"),
    pytest.param(np.diag([-1.0, 1, 1, 1]), IllConditionedSpectrumError, id="reflection"),
    pytest.param(so_exp(_SKEW), NotInCartanModelError, id="generic-rotation"),
    pytest.param(np.diag([1.0, 1, -1, -1]), NotInCartanModelError, id="eigenspace-dim-4"),
    pytest.param(_nan_on_diagonal(), DimensionMismatchError, id="nan"),
]


@pytest.mark.parametrize("R, error", UNCERTIFIED_CASES)
def test_uncertified_input_error_class(R, error):
    for build in (CartanMotion, CartanMotion.certify):
        with pytest.raises(error):
            build(Motion(R, np.zeros(4)), SIG22)
    for build in (CartanRotation, CartanRotation.certify):
        with pytest.raises(error):
            build(R, SIG22)


# (op on a certified motion s and rotation cr, eigh calls it may run).
# Construction runs the one S_p0 check; its consumers read the kept frame.
EIGH_CALLS = [
    pytest.param(lambda s, cr: rho(s), 0, id="rho"),
    pytest.param(lambda s, cr: dp_log_full(s), 0, id="dp_log_full"),
    pytest.param(lambda s, cr: rho0(cr), 0, id="rho0"),
    pytest.param(lambda s, cr: dp_log0(cr), 0, id="dp_log0"),
    pytest.param(lambda s, cr: CartanMotion.certify(s.motion, s.sig), 1, id="_certify"),
    pytest.param(lambda s, cr: CartanRotation(cr.mat, cr.sig), 1, id="_certify_rotation"),
]


@pytest.mark.parametrize("op, expected", EIGH_CALLS)
def test_one_eigen_decomposition_per_call(rng, monkeypatch, op, expected):
    """Only construction runs the S_p0 check; its eigh also gives the frame."""
    calls = []
    for name in ("eigh", "eigvalsh"):
        def counted(*args, _real=getattr(np.linalg, name), **kwargs):
            calls.append(_real.__name__)
            return _real(*args, **kwargs)
        monkeypatch.setattr(np.linalg, name, counted)
    s = dp_exp_full(sample_dp_element(rng, 2, 2, bound=2.0))
    cr = CartanRotation(s.motion.R, s.sig)
    calls.clear()
    op(s, cr)
    assert len(calls) == expected


class TestCertificate:
    """A certified instance cannot be changed into an unchecked one."""

    def test_replace_runs_the_check(self):
        s = CartanMotion(Motion(np.eye(4), np.zeros(4)), SIG22)
        with pytest.raises(NotInCartanModelError):
            dataclasses.replace(s, motion=Motion(np.eye(4), np.array([0, 0, 1.0, 0])))
        cr = CartanRotation(np.eye(4), SIG22)
        with pytest.raises(NotInCartanModelError):
            dataclasses.replace(cr, mat=so_exp(_SKEW))

    def test_caller_mutation_does_not_reach_the_instance(self):
        R, X = np.eye(4), np.array([1.0, 0, 0, 0])
        s = CartanMotion(Motion(R, X), SIG22)
        cr = CartanRotation(R, SIG22)
        R[:] = so_exp(_SKEW)
        X[2] = 5.0
        assert np.array_equal(s.motion.R, np.eye(4))
        assert np.array_equal(s.motion.X, [1.0, 0, 0, 0])
        assert np.array_equal(cr.mat, np.eye(4))
        assert plane_equal(rho(s).plane, coordinate_plane(4, 2))
        assert plane_equal(rho0(cr), coordinate_plane(4, 2))

    def test_stored_arrays_are_read_only(self):
        s = CartanMotion(Motion(np.eye(4), np.zeros(4)), SIG22)
        cr = CartanRotation(np.eye(4), SIG22)
        for a in (s.motion.R, s.motion.X, cr.mat, rho0(cr).frame, rho(s).plane.frame):
            with pytest.raises(ValueError):
                a[0] = 2.0
