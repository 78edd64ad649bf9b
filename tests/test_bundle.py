import copy
import dataclasses
import math
import pickle
import sys
import threading

import numpy as np
import pytest

from cartanbundle import (
    CartanMotion,
    CartanRotation,
    CutLocusError,
    DegenerateSpanError,
    DimensionMismatchError,
    DpElement,
    DpGenerator,
    GeometryError,
    IllConditionedSpectrumError,
    Motion,
    NotInCartanModelError,
    Plane,
    Signature,
    Tolerances,
    BundlePoint,
    Screw,
    bundle_act,
    bundle_point,
    cartan_embed0,
    double_projection,
    dp_exp,
    dp_exp_full,
    dp_log0,
    dp_log_full,
    find_transporter,
    identity_motion,
    in_Q,
    is_fixed_point,
    rho,
    rho0,
    rho_inv,
    rotate_plane,
    se_inv,
    se_mul,
    sigma,
    so_exp,
    tau,
    twisted_act,
    twisted_act0,
    coordinate_plane,
    in_Q0,
    plane_equal,
    plane_from_frame,
    projector,
    skew_wedge,
)
from cartanbundle.sampling import (
    make_rng,
    sample_bundle_point,
    sample_bundle_points,
    sample_cartan_motion,
    sample_dp_element,
    sample_dp_elements,
    sample_fixed_point,
    sample_motion,
    sample_rotation,
)

import cartanbundle.bundle as bundle_module
import cartanbundle.grassmann as grassmann_module
import cartanbundle.matcore as matcore_module
from lapack_spy import spy
from oracles import (
    certificate_error_oracle,
    certificate_residuals_oracle,
    dp_exp_full_oracle,
    dp_log_v_oracle,
    longdouble_exp_oracle,
    sigma_residual_oracle,
    svd_projector_oracle,
)


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

    @NON_FINITE
    def test_rejects_non_finite_motion(self, bad):
        for g in (Motion(np.eye(4), _with_entry(np.zeros(4), 0, bad)),
                  Motion(_with_entry(np.eye(4), (0, 0), bad), np.zeros(4))):
            with pytest.raises(DimensionMismatchError):
                in_Q(g, SIG22)


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

    def test_rejects_an_acting_matrix_outside_so_n(self):
        # The closed forms invert A by A^T. Unchecked, A = 2 I gave an R of
        # norm 8 from both maps, which no rotation has.
        g = tau(identity_motion(4), SIG22).motion
        with pytest.raises(IllConditionedSpectrumError):
            twisted_act(Motion(2.0 * np.eye(4), np.zeros(4)), g, SIG22)
        with pytest.raises(IllConditionedSpectrumError):
            twisted_act0(2.0 * np.eye(4), np.eye(4), SIG22)

    def test_checks_the_acting_rotation_under_the_tolerances_it_is_given(self):
        # |A^T A - I| is about 1e-7: outside 4 tol.orth at the default, inside at 1e-6
        A, loose = np.eye(4), Tolerances(orth=1e-6)
        A[0, 1] = 1e-7
        g = tau(identity_motion(4), SIG22).motion
        for act, args in ((twisted_act, (Motion(A, np.zeros(4)), g)), (twisted_act0, (A, g.R))):
            with pytest.raises(IllConditionedSpectrumError):
                act(*args, SIG22)
            act(*args, SIG22, loose)


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

    def test_reads_a_only_on_the_plane(self, rng):
        # A is read only through A pi, whose frame check certifies that A maps
        # pi isometrically: 2 I is rejected there, and a reflection acts as
        # the rotation H A that agrees with it on pi, for H the reflection
        # across a hyperplane that contains A pi.
        b = sample_bundle_point(rng, 4, 2)
        X = rng.standard_normal(4)
        with pytest.raises(DegenerateSpanError):
            bundle_act(Motion(2.0 * np.eye(4), X), b, SIG22)
        A = np.diag([-1.0, 1.0, 1.0, 1.0])
        u = np.linalg.qr(A @ b.plane.frame, mode="complete")[0][:, -1]  # a unit normal of A pi
        HA = (np.eye(4) - 2.0 * np.outer(u, u)) @ A
        assert abs(np.linalg.det(HA) - 1.0) <= 1e-14
        reflected, rotated = bundle_act(Motion(A, X), b, SIG22), bundle_act(Motion(HA, X), b, SIG22)
        assert np.linalg.norm(reflected.plane.projector - rotated.plane.projector) <= 1e-14
        assert np.linalg.norm(reflected.fiber - rotated.fiber) <= 1e-14


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

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_non_finite_coefficients_rejected(self, bad):
        gen = DpGenerator(p=2, q=2, B=np.zeros((2, 2)))
        with pytest.raises(DimensionMismatchError):
            DpElement(gen=gen, v=np.array([bad, 0.0]))

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
        # The fiber leaks 3e-8 out of the reference plane: outside the fiber
        # bound of the default tolerances, inside that of loose ones. The
        # CartanMotion certificate is the one check of the fiber: dp_log_full
        # reads a motion certified under loose tolerances, and no motion
        # carrying such a fiber is certified under the defaults.
        g = Motion(np.eye(4), np.array([1.0, 0, 3e-8, 0]))
        loose = Tolerances(invol=1e-6, fiber=1e-6)
        assert np.allclose(dp_log_full(CartanMotion.certify(g, SIG22, loose)).v, [1.0, 0])
        with pytest.raises(NotInCartanModelError):
            CartanMotion.certify(g, SIG22)

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
# The public constructors run the one S_p0 check; its consumers read the
# kept frame, and the maps into S_p by construction carry a closed-form frame.
EIGH_CALLS = [
    pytest.param(lambda s, cr: dp_exp_full(_fixed_dp_cases()[1]), 0, id="dp_exp_full"),
    pytest.param(lambda s, cr: rho_inv(rho(s)), 0, id="rho_inv"),
    pytest.param(lambda s, cr: tau(s.motion, s.sig), 0, id="tau"),
    pytest.param(lambda s, cr: cartan_embed0(rho0(cr)), 0, id="cartan_embed0"),
    pytest.param(lambda s, cr: dp_exp(dp_log0(cr)), 0, id="dp_exp"),
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
    spy(monkeypatch, lambda decomposition, a: calls.append(decomposition), ("eigh", "eigvalsh"))
    s = dp_exp_full(sample_dp_element(rng, 2, 2, bound=2.0))
    cr = CartanRotation(s.motion.R, s.sig)
    calls.clear()
    op(s, cr)
    assert len(calls) == expected


def _count_rotation_builds(monkeypatch) -> list:
    """From here on, one entry per call of an n x n R builder of ``rho_inv`` or ``dp_exp_full``: the
    cosine-sine form, or (I - 2 P) J."""
    built = []
    for name in ("_cs_rotation", "_embed_rotation"):
        def counted(*args, _real=getattr(grassmann_module, name), _name=name):
            built.append(_name)
            return _real(*args)

        for module in (grassmann_module, bundle_module):
            monkeypatch.setattr(module, name, counted)
    return built


def _desk_operands(n, p, lead) -> tuple:
    """A bundle point and a d_p element at (n, p), or stacks of them of leading shape ``lead``."""
    rng, count = make_rng(20261020, n), math.prod(lead)
    F, Y = sample_bundle_points(rng, n, p, count)
    B, v = sample_dp_elements(rng, p, n - p, count, math.pi - 0.1)
    F, Y, B, v = (a.reshape(lead + a.shape[1:]) for a in (F, Y, B, v))
    return bundle_point(plane_from_frame(F), Y), DpElement(DpGenerator(p, n - p, B), v)


@pytest.mark.parametrize("lead", [(), (5,), (2, 3)], ids=str)
@pytest.mark.parametrize("n, p", [(4, 2), (8, 3), (32, 5)], ids=str)
@pytest.mark.parametrize("chain", ["rho_inv", "dp_exp_full"])
def test_a_desk_chain_builds_no_rotation_it_does_not_return(monkeypatch, chain, n, p, lead):
    """rho(rho_inv(b)) and dp_log_full(dp_exp_full(xi)) read the frame and the translation of the motion
    between them, never its n x n R, so no R is built. The first read of ``motion`` builds R once, bit
    for bit the expression the map used to build it with, read-only; a second read returns that motion."""
    b, xi = _desk_operands(n, p, lead)
    forward, back, expected = {
        "rho_inv": (lambda: rho_inv(b), rho,
                    lambda: (np.eye(n) - 2.0 * b.plane.projector) * np.diag(Signature(p, n - p).matrix)),
        "dp_exp_full": (lambda: dp_exp_full(xi), dp_log_full, lambda: dp_exp_full_oracle(xi)[0]),
    }[chain]
    built = _count_rotation_builds(monkeypatch)
    back(forward())
    assert built == []
    s = forward()
    motion = s.motion
    assert len(built) == 1
    assert motion.R.shape == lead + (n, n) and motion.R.tobytes() == expected().tobytes()
    assert not motion.R.flags.writeable and motion.X is s._X
    assert s.motion is motion and len(built) == 1


def test_first_reads_at_once_get_one_motion(monkeypatch):
    """Four threads, more than the cores of a small machine, make the first read of a deferred motion
    together, all inside the build of R at once and with a short switch interval. Each gets the same
    motion, whose R is the eager one bit for bit."""
    readers = 4
    all_inside = threading.Barrier(readers, timeout=10)

    def build(*args, _real=grassmann_module._cs_rotation):
        all_inside.wait()
        return _real(*args)

    monkeypatch.setattr(bundle_module, "_cs_rotation", build)
    xi = _desk_operands(4, 2, ())[1]
    s, read = dp_exp_full(xi), [None] * readers

    def first_read(k):
        read[k] = s.motion

    threads = [threading.Thread(target=first_read, args=(k,)) for k in range(readers)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=20)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert all(motion is s.motion for motion in read)
    assert s.motion.R.tobytes() == dp_exp_full_oracle(xi)[0].tobytes()


@pytest.mark.parametrize("lead", [(), (5,), (2, 3)], ids=str)
@pytest.mark.parametrize("n, p", [(4, 2), (8, 3)], ids=str)
@pytest.mark.parametrize("chain", ["rho_inv", "dp_exp_full"])
def test_an_unsure_output_builds_its_deferred_rotation_once(monkeypatch, chain, n, p, lead):
    """Under tol.orth at half of n ``_ROUND`` no output of ``rho_inv`` or ``dp_exp_full`` is sure, so the fallback
    builds R for the public check. The first read of ``motion`` returns that R, read-only and bit for bit the
    expression the map builds it with, and builds none."""
    unsure = Tolerances(orth=0.5 * n * grassmann_module._ROUND)
    b, xi = _desk_operands(n, p, lead)
    forward, expected = {
        "rho_inv": (lambda: rho_inv(bundle_point(plane_from_frame(b.plane.frame, unsure), b.fiber)),
                    lambda: (np.eye(n) - 2.0 * b.plane.projector) * np.diag(Signature(p, n - p).matrix)),
        "dp_exp_full": (lambda: dp_exp_full(xi, unsure), lambda: dp_exp_full_oracle(xi)[0]),
    }[chain]
    built = _count_rotation_builds(monkeypatch)
    s = forward()
    assert len(built) == 1
    motion = s.motion
    assert len(built) == 1 and s.motion is motion
    assert motion.R.tobytes() == expected().tobytes() and not motion.R.flags.writeable


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

    @pytest.mark.parametrize("clone", [copy.copy, copy.deepcopy, lambda x: pickle.loads(pickle.dumps(x)),
                                       dataclasses.replace], ids=["copy", "deepcopy", "pickle", "replace"])
    def test_copies_rebuild_through_the_check(self, rng, monkeypatch, clone):
        """A copy runs the public check once and keeps the bits, read-only; so does the copy of a motion
        from ``rho_inv`` or ``dp_exp_full`` taken before its R is built, whose repr is the copy's."""
        checked = []

        def counted(*args, _real=bundle_module._cartan_motion):
            checked.append(1)
            return _real(*args)

        s = sample_cartan_motion(rng, 4, 2)
        cr = CartanRotation(s.motion.R, SIG22)
        xi = sample_dp_element(rng, 2, 2, bound=2.0)
        monkeypatch.setattr(bundle_module, "_cartan_motion", counted)
        for make in (lambda: s, lambda: rho_inv(rho(s)), lambda: dp_exp_full(xi)):
            text, one = repr(make()), make()
            s2 = clone(one)
            assert checked == [1] and repr(s2) == text
            checked.clear()
            assert s2.motion.R.tobytes() == one.motion.R.tobytes()
            assert s2.motion.X.tobytes() == one.motion.X.tobytes()
            for a in (s2.motion.R, s2.motion.X, s2._frame):
                with pytest.raises(ValueError):
                    a[...] = 5.0
        cr2 = clone(cr)
        assert np.array_equal(cr2.mat, cr.mat)
        for a in (cr2.mat, cr2._frame):
            with pytest.raises(ValueError):
                a[...] = 5.0

    def test_copies_keep_the_tolerances_of_the_check(self, rng):
        # R is 1e-7 off SO(n): certified only under the loose tolerances,
        # which a copy must check against again.
        R = sample_cartan_motion(rng, 4, 2).motion.R + 1e-7 * rng.standard_normal((4, 4))
        loose = Tolerances(orth=1e-4, invol=1e-4)
        with pytest.raises(IllConditionedSpectrumError):
            CartanMotion(Motion(R, np.zeros(4)), SIG22)
        s = CartanMotion(Motion(R, np.zeros(4)), SIG22, loose)
        cr = CartanRotation(R, SIG22, loose)
        assert np.array_equal(copy.deepcopy(s).motion.R, s.motion.R)
        assert np.array_equal(pickle.loads(pickle.dumps(cr)).mat, cr.mat)


class TestTrustedPath:
    """The maps into S_p by construction check nothing, so each bad input
    must be stopped where it enters: at the construction of its ``Plane``
    or ``BundlePoint``, or at the call."""

    F = np.eye(4, 2)

    def test_fiber_off_its_plane(self):
        plane = coordinate_plane(4, 2)
        with pytest.raises(NotInCartanModelError):
            rho_inv(BundlePoint(plane, np.array([0.0, 0, 1, 0])))

    def test_non_orthonormal_frame(self):
        F = 1.01 * self.F
        with pytest.raises(DegenerateSpanError):
            cartan_embed0(Plane(F))
        with pytest.raises(DegenerateSpanError):
            rho_inv(BundlePoint(Plane(F), np.zeros(4)))

    def test_plane_keeps_the_projector_of_its_frame(self, rng):
        # n, p and the projector are derived from the frame: F F^T exactly,
        # which embeds as a rotation in S_p0.
        F = sample_rotation(rng, 4)[:, :2]
        plane = Plane(F)
        assert (plane.n, plane.p) == (4, 2)
        assert np.array_equal(plane.projector, projector(F))
        CartanRotation(cartan_embed0(plane).mat, SIG22)
        s = rho_inv(BundlePoint(plane, np.zeros(4)))
        CartanMotion(s.motion, s.sig)

    # Scaled by 1 + 6e-10 or more, the frame passes its check (|F^T F - I| up
    # to tol.orth n) but the embedding misses SO(n) by about 4 |F^T F - I|;
    # tau's output misses it by about twice the residual of A.
    @pytest.mark.parametrize("c", [1 + 1e-11, 1 + 1e-10, 1 + 3e-10, 1 + 6e-10, 1 + 1e-9])
    def test_nearly_orthonormal_inputs_fare_as_at_the_public_check(self, rng, c):
        """The output passes the public check, or the call raises what the
        public constructor raises on the same matrices."""
        Q = sample_rotation(rng, 4)
        R = (np.eye(4) - 2.0 * projector(c * Q[:, :2])) * SIG22._signs
        plane = plane_from_frame(c * Q[:, :2])
        g = Motion(c * Q, rng.standard_normal(4))
        cases = [
            (lambda: cartan_embed0(plane), lambda: CartanRotation(R, SIG22)),
            (lambda: rho_inv(bundle_point(plane, np.zeros(4))),
             lambda: CartanMotion(Motion(R, np.zeros(4)), SIG22)),
            (lambda: tau(g, SIG22), lambda: CartanMotion(se_mul(g, sigma(se_inv(g), SIG22)), SIG22)),
        ]
        raised = 0
        for build, public in cases:
            try:
                public()
            except GeometryError as exc:
                raised += 1
                with pytest.raises(type(exc)):
                    build()
                continue
            out = build()
            if isinstance(out, CartanMotion):
                CartanMotion(out.motion, out.sig)
            else:
                CartanRotation(out.mat, out.sig)
        assert raised == (3 if c >= 1 + 6e-10 else 0)

    @pytest.mark.parametrize("F", [np.eye(4, 2).T, np.ones(4), np.ones((2, 4, 5))],
                             ids=["frame", "frame-1d", "frame-stack"])
    def test_plane_arrays_of_the_wrong_shape(self, F):
        with pytest.raises(DimensionMismatchError):
            Plane(F)

    def test_nan_fiber(self):
        with pytest.raises(DimensionMismatchError):
            rho_inv(BundlePoint(coordinate_plane(4, 2), np.array([math.nan, 0, 0, 0])))

    def test_caller_mutation_does_not_reach_plane_or_point(self):
        F, Y = np.eye(4, 2), np.array([1.0, 2.0, 0, 0])
        b = bundle_point(plane_from_frame(F), Y)
        F[:, 0] = [0.0, 0, 5, 0]
        Y[2] = 7.0
        assert np.array_equal(b.plane.frame, np.eye(4, 2))
        assert np.array_equal(b.plane.projector, b.plane.frame @ b.plane.frame.T)
        assert np.array_equal(b.fiber, [1.0, 2.0, 0, 0])
        s = rho_inv(b)
        CartanMotion(s.motion, s.sig)
        for a in (b.plane.frame, b.plane.projector, b.fiber):
            with pytest.raises(ValueError):
                a[0] = 3.0

    def test_tau_rejects_a_reflection(self):
        with pytest.raises(IllConditionedSpectrumError):
            tau(Motion(np.diag([-1.0, 1, 1, 1]), np.zeros(4)), SIG22)


def _by_construction(rng, tol):
    """(name, output) of every map that builds its output without a check, under ``tol``."""
    s = tau(sample_motion(rng, 4), SIG22, tol)
    plane = plane_from_frame(sample_rotation(rng, 4)[:, :2], tol)
    b = bundle_point(plane, plane.projector @ rng.standard_normal(4))
    gen = DpGenerator(p=2, q=2, B=0.5 * rng.standard_normal((2, 2)))
    return [
        ("tau", s),
        ("rho_inv", rho_inv(b)),
        ("dp_exp_full", dp_exp_full(DpElement(gen, rng.standard_normal(2)), tol)),
        ("cartan_embed0", cartan_embed0(b.plane)),
        ("dp_exp", dp_exp(gen, tol)),
        ("plane", b.plane),
        ("bundle_point", b),
        ("rho", rho(s)),
    ]


CLONES = [
    pytest.param(copy.copy, id="copy"),
    pytest.param(copy.deepcopy, id="deepcopy"),
    pytest.param(lambda x: pickle.loads(pickle.dumps(x)), id="pickle"),
    pytest.param(dataclasses.replace, id="replace"),
]


CLONE_TOLS = [
    pytest.param(Tolerances(), id="default"),
    pytest.param(Tolerances(orth=1e-7, invol=1e-6, fiber=1e-7), id="loose"),
]


@pytest.mark.parametrize("tol", CLONE_TOLS)
@pytest.mark.parametrize("clone", CLONES)
def test_clones_of_unchecked_outputs_run_the_public_check(rng, monkeypatch, clone, tol):
    """Each copy runs its class's check: the S_p0 eigh of a Cartan type, the
    frame check of a plane, the fiber bound of a bundle point. ``copy``,
    ``deepcopy`` and ``pickle`` check under the original's tolerances;
    ``dataclasses.replace`` under the defaults, except for a bundle point,
    which is checked under its plane's."""
    calls = []

    def counting(module, name):
        def counted(*args, _real=getattr(module, name), **kwargs):
            calls.append(name)
            return _real(*args, **kwargs)
        monkeypatch.setattr(module, name, counted)

    for module in (grassmann_module, bundle_module):
        counting(module, "_cartan_frame")
    counting(grassmann_module, "_checked_frame")
    counting(bundle_module, "_fiber_holds")
    checks = {
        CartanMotion: "_cartan_frame", CartanRotation: "_cartan_frame",
        Plane: "_checked_frame", BundlePoint: "_fiber_holds",
    }
    for name, out in _by_construction(rng, tol):
        calls.clear()
        twin = clone(out)
        assert calls.count(checks[type(out)]) == 1, name
        assert type(twin) is type(out) and twin is not out
        assert out._tol == tol
        kept = clone is not dataclasses.replace or type(out) is BundlePoint
        assert twin._tol == (tol if kept else Tolerances())


@pytest.mark.parametrize("tol", CLONE_TOLS)
def test_maps_of_certified_values_carry_the_tolerances_of_their_operand(rng, tol):
    plane = plane_from_frame(sample_rotation(rng, 4)[:, :2], tol)
    b = bundle_point(plane, plane.projector @ rng.standard_normal(4))
    moved = bundle_act(sample_motion(rng, 4), b, SIG22)
    for out in (b, rho_inv(b), moved, moved.plane, cartan_embed0(plane), rotate_plane(np.eye(4), plane)):
        assert out._tol == tol, type(out).__name__


def test_dp_log_full_reads_the_tolerances_of_its_motion(rng):
    # A branch margin of 1.5 puts every principal angle above pi/2 - 1.5 on
    # the cut locus; the motion carries it from its check.
    g = sample_cartan_motion(rng, 4, 2).motion
    dp_log_full(CartanMotion(g, SIG22))
    with pytest.raises(CutLocusError):
        dp_log_full(CartanMotion(g, SIG22, Tolerances(branch=1.5)))


def _sure_cases(rng, n, p, c, scale):
    """(name, build(tol)) for each map that trusts its output when ``_sure``."""
    sig = Signature(p, n - p)
    F = c * sample_rotation(rng, n)[:, :p]  # off-orthonormal for c > 1: a trusted plane
    Y = scale * projector(F) @ rng.standard_normal(n)
    g = Motion(c * sample_rotation(rng, n), scale * rng.standard_normal(n))
    xi = DpElement(DpGenerator(p=p, q=n - p, B=rng.standard_normal((n - p, p))),
                   scale * rng.standard_normal(p))
    return [
        ("cartan_embed0", lambda tol: cartan_embed0(grassmann_module._plane(F, tol))),
        ("rho_inv", lambda tol: rho_inv(bundle_point(grassmann_module._plane(F, tol), Y))),
        ("tau", lambda tol: tau(g, sig, tol)),
        ("dp_exp", lambda tol: dp_exp(xi.gen, tol)),
        ("dp_exp_full", lambda tol: dp_exp_full(xi, tol)),
    ]


@pytest.mark.parametrize("n, p", [(2, 1), (4, 2), (8, 3), (32, 5)])
@pytest.mark.parametrize("c", [1.0, 1 + 1e-11])
def test_sure_outputs_pass_the_public_check_at_their_bounds(rng, monkeypatch, n, p, c):
    """Under the tightest tolerances that ``_sure`` still trusts (its bounds
    rot and fib, each met with equality), the output skips its check and
    passes the public constructor. The inputs are orthonormal, or scaled by
    1 + 1e-11 so that the bounds' first-order terms dominate."""
    seen, checked = [], []

    def recorded(tol, rot, fib=0.0, X=None, size=None, _real=grassmann_module._sure):
        seen.append((rot, fib))
        return _real(tol, rot, fib, X, size)

    def counted(*args, _real=grassmann_module._cartan_frame):
        checked.append(1)
        return _real(*args)

    for module in (grassmann_module, bundle_module):
        monkeypatch.setattr(module, "_sure", recorded)
        monkeypatch.setattr(module, "_cartan_frame", counted)
    for scale in (1.0, 1e3):
        for name, build in _sure_cases(rng, n, p, c, scale):
            build(Tolerances())
            rot, fib = seen[-1]
            tight = Tolerances(orth=rot, invol=rot + 2.0 * fib, fiber=fib or 1.0)
            checked.clear()
            out = build(tight)
            assert not checked, name
            if isinstance(out, CartanMotion):
                CartanMotion(out.motion, out.sig, tight)
            else:
                CartanRotation(out.mat, out.sig, tight)


def _parts_of(out) -> tuple:
    """The arrays a certified output keeps: R and X of a motion, or R of a rotation, then its frame."""
    if isinstance(out, CartanMotion):
        return out.motion.R, out.motion.X, out._frame
    return out.mat, out._frame


def _public(out, tol):
    """The public constructor's certificate of the same matrices as ``out``."""
    if isinstance(out, CartanMotion):
        return CartanMotion(out.motion, out.sig, tol)
    return CartanRotation(out.mat, out.sig, tol)


@pytest.mark.parametrize("n, p", [(2, 1), (4, 2), (8, 3), (32, 5)])
def test_unsure_outputs_take_the_one_fallback(rng, monkeypatch, n, p):
    """Each of the five maps that land in the Cartan model by construction
    sends an output that is not ``_sure`` to ``_checked_where_unsure``, one
    public check on the stack of unsure elements, and keeps what that check
    finds. Under ``tol.orth`` at half of n ``_ROUND``, below every map's
    rotation bound, nothing is sure, yet the public check passes. The
    fallback builds the R that ``rho_inv`` and ``dp_exp_full`` defer."""
    rechecked = []

    def counted(sure, F, check, sig, tol, *parts, _real=grassmann_module._checked_where_unsure):
        def once(*args):
            rechecked.append(args[0].shape)
            return check(*args)
        return _real(sure, F, once, sig, tol, *parts)

    for module in (grassmann_module, bundle_module):
        monkeypatch.setattr(module, "_checked_where_unsure", counted)
    unsure = Tolerances(orth=0.5 * n * grassmann_module._ROUND)
    for name, build in _sure_cases(rng, n, p, 1.0, 1e3):
        build(Tolerances())
        assert rechecked == [], name
        out = build(unsure)
        assert rechecked == [(n, n)], name
        rechecked.clear()
        for a, b in zip(_parts_of(out), _parts_of(_public(out, unsure)), strict=True):
            assert a.tobytes() == b.tobytes(), name

    # a stack: its unsure elements go through one public check, as one stack,
    # and each keeps the frame that check finds
    K, sig = 5, Signature(p, n - p)
    B, v = rng.standard_normal((K, n - p, p)), rng.standard_normal((K, p))
    R = np.stack([sample_rotation(rng, n) for _ in range(K)])
    X = rng.standard_normal((K, n))
    gen = DpGenerator(p=p, q=n - p, B=B)
    F, Y = sample_bundle_points(rng, n, p, K)
    for stacked in (lambda: dp_exp(gen, unsure), lambda: tau(Motion(R, X), sig, unsure),
                    lambda: dp_exp_full(DpElement(gen, v), unsure),
                    lambda: rho_inv(bundle_point(plane_from_frame(F, unsure), Y))):
        out = _parts_of(stacked())
        assert rechecked == [(K, n, n)]
        rechecked.clear()
        for i in range(K):
            if len(out) == 2:
                one = grassmann_module._cartan_rotation(out[0][i], sig, unsure)[1]
            else:
                one = bundle_module._cartan_motion(Motion(out[0][i], out[1][i]), sig, unsure)[1]
            assert one.tobytes() == out[-1][i].tobytes()


GRID = (2, 3)


def _grid_motions(rng, n, identity=()):
    """A (2, 3) grid of motions: Haar rotations, or the identity at the indices ``identity``, and normal X."""
    A = np.stack([np.eye(n) if i in identity else sample_rotation(rng, n) for i in np.ndindex(GRID)])
    return A.reshape(GRID + (n, n)), rng.standard_normal(GRID + (n,))


def _raised(build) -> tuple:
    """The class, detail and context of the ``GeometryError`` that ``build()`` raises."""
    with pytest.raises(GeometryError) as info:
        build()
    return type(info.value), info.value.detail, info.value.context


def test_a_mixed_grid_checks_only_its_unsure_elements(rng):
    """Under ``tol.orth`` just above n ``_ROUND``, tau of an identity rotation
    (e = 0) is sure and keeps A[:, :p] as its frame; tau of a Haar rotation
    is not, and takes the frame of the public check. Either way each element
    is its single call bit for bit."""
    n, p, sig = 4, 2, Signature(2, 2)
    tol = Tolerances(orth=n * grassmann_module._ROUND * (1 + 1e-9))
    identity = {(0, 0), (0, 2), (1, 1)}
    A, X = _grid_motions(rng, n, identity)
    out = tau(Motion(A, X), sig, tol)
    for i in np.ndindex(GRID):
        one = tau(Motion(A[i], X[i]), sig, tol)
        for a, b in zip(_parts_of(out), _parts_of(one), strict=True):
            assert a[i].tobytes() == b.tobytes(), i
        assert np.array_equal(out._frame[i], A[i][:, :p]) == (i in identity), i


def _one_failing_grid(rng, name) -> tuple:
    """(call, operands, error class): a (2, 3) grid of ``name``'s operands at (4, 2) whose element (1, 2)
    fails the public check that the map falls back to."""
    n, sig = 4, Signature(2, 2)
    A, X = _grid_motions(rng, n)
    if name == "tau":
        X[1, 2] = 1e150 * A[1, 2][:, 0]
        return lambda A, X: tau(Motion(A, X), sig), (A, X), DimensionMismatchError
    if name == "rho_inv":
        F = A[..., :2].copy()
        F[1, 2] *= 1 + 1e-9
        return (lambda F, Y: rho_inv(bundle_point(plane_from_frame(F), Y)), (F, np.zeros(GRID + (n,))),
                IllConditionedSpectrumError)
    B, v = 0.1 * rng.standard_normal(GRID + (2, 2)), rng.standard_normal(GRID + (2,))
    B[1, 2] = 2.33 * np.outer([1.0, 0], [1.0, 1]) / math.sqrt(2)
    v[1, 2] = 1e150
    return lambda B, v: dp_exp_full(DpElement(DpGenerator(2, 2, B), v)), (B, v), DimensionMismatchError


@pytest.mark.parametrize("name", ["tau", "rho_inv", "dp_exp_full"])
def test_one_failing_element_raises_its_single_calls_error(rng, name):
    """The grid raises that element's single-call error, with its ``index``
    in the grid, and a 1-d stack with its int index. tau doubles a 1e150
    translation along A's plane, out of the input domain; rho_inv embeds a
    frame scaled by 1 + 1e-9, which passes the frame check, off SO(n); and
    dp_exp_full turns v = (1e150, 1e150) by 1.165 rad onto one axis, out of
    the input domain."""
    call, operands, error = _one_failing_grid(rng, name)
    cls, detail, context = _raised(lambda: call(*(a[1, 2] for a in operands)))
    assert cls is error and "index" not in context
    assert _raised(lambda: call(*operands)) == (cls, detail, {**context, "index": (1, 2)})
    flat = (a.reshape((-1,) + a.shape[2:]) for a in operands)
    assert _raised(lambda: call(*flat)) == (cls, detail, {**context, "index": 5})


def test_two_failing_elements_raise_as_the_check_of_the_whole_stack(rng):
    """tau of A = (1 + d) Q, Q a rotation, has R = (1 + d)^2 Q J Q^T J, whose
    orthogonality residual is about twice that of A. Element (0, 1), at
    d = 1e-9, fails only the fiber condition; element (1, 2), at d = 0.9e-8,
    fails orthogonality, which the check tests first. The raise is the
    public constructor's on the whole output stack: the first failing
    condition, then its first failing element in C order."""
    n, sig = 4, Signature(2, 2)
    tol = Tolerances(orth=1e-8, invol=1e-6, fiber=1e-12)
    A, X = _grid_motions(rng, n)
    A[0, 1] *= 1 + 1e-9
    A[1, 2] *= 1 + 0.9e-8
    assert _raised(lambda: tau(Motion(A[0, 1], X[0, 1]), sig, tol))[0] is NotInCartanModelError
    g = Motion(A, X)
    whole = _raised(lambda: CartanMotion(se_mul(g, sigma(se_inv(g), sig)), sig, tol))
    assert whole[0] is IllConditionedSpectrumError and whole[2]["index"] == (1, 2)
    assert _raised(lambda: tau(g, sig, tol)) == whole


@pytest.mark.parametrize("v", [[1, 2], np.array([1, 2])])
def test_a_dp_element_keeps_v_as_a_float_array(v):
    from cartanbundle.cli import _dp_json

    xi = DpElement(DpGenerator(2, 2, np.eye(2)), v)
    assert type(xi.v) is np.ndarray and xi.v.dtype == np.float64
    assert _dp_json(xi)["v"] == [1.0, 2.0]


@pytest.mark.skipif(np.finfo(np.longdouble).eps > 1e-18, reason="long double is no wider than double")
@pytest.mark.parametrize("n, p", [(2, 1), (5, 1), (5, 4), (16, 1), (16, 15)])
@pytest.mark.parametrize("size", [0.0, 1e-8, 1.0, math.pi - 0.1, 3 * math.pi])
def test_dp_exp_full_matches_a_long_double_reference(n, p, size):
    """exp(xi) of a d_p element, against the long-double exponential of its
    homogeneous block, for |B|_2 from 0 past the cut locus: R within
    32 n eps and X within 4 n eps (1 + |v|)."""
    rng = make_rng(20261019, 10 * n + p)
    B = rng.standard_normal((n - p, p))
    B *= size / np.linalg.norm(B, 2)
    v = rng.standard_normal(p)
    xi = DpElement(DpGenerator(p=p, q=n - p, B=B), v)
    out = dp_exp_full(xi)
    M = np.zeros((n + 1, n + 1))
    M[:n, :n] = xi.gen.embed()
    M[:p, n] = v
    E = longdouble_exp_oracle(M)
    eps = np.finfo(float).eps
    assert np.linalg.norm((out.motion.R - E[:n, :n]).astype(float)) <= 32 * n * eps
    assert np.linalg.norm((out.motion.X - E[:n, n]).astype(float)) <= 4 * n * eps * (1 + np.linalg.norm(v))


def test_copies_of_a_plane_keep_its_tolerances(rng):
    # |F^T F - I| = 4e-8 passes only the loose frame check.
    F = (1 + 1e-8) * sample_rotation(rng, 4)[:, :2]
    loose = Tolerances(orth=1e-7)
    with pytest.raises(DegenerateSpanError):
        plane_from_frame(F)
    plane = plane_from_frame(F, loose)
    for clone in (copy.copy, copy.deepcopy, lambda x: pickle.loads(pickle.dumps(x))):
        assert np.array_equal(clone(plane).frame, plane.frame)
    with pytest.raises(DegenerateSpanError):
        dataclasses.replace(plane)


# The certificate reads the sigma residual off the S_p0 check (S = R J and
# |S^2 - I|) instead of building sigma(g); these pin it to the built formula.
PARITY_SHAPES = [(2, 1), (4, 2), (8, 3), (32, 5)]
LOOSE = Tolerances(orth=1e-3, invol=1e-3, fiber=1e-3)


def _parity_motions(rng, n, p):
    """Certified motions, and motions perturbed by 1e-6 to 1e-14 with |X| up to 1e6."""
    motions = []
    for scale in (1.0, 1e3, 1e6):
        g = sample_cartan_motion(rng, n, p).motion
        motions.append(Motion(g.R.copy(), scale * g.X))
        for eps in (1e-6, 1e-8, 1e-10, 1e-12, 1e-14):
            motions.append(Motion(g.R + eps * rng.standard_normal((n, n)),
                                  scale * (g.X + eps * rng.standard_normal(n))))
    return motions


@pytest.fixture
def sigma_residuals(monkeypatch):
    """The values ``bundle._sigma_residual`` returns, in call order."""
    seen = []

    def recorded(*args, _real=bundle_module._sigma_residual):
        seen.append(_real(*args))
        return seen[-1]

    monkeypatch.setattr(bundle_module, "_sigma_residual", recorded)
    return seen


@pytest.mark.parametrize("n, p", PARITY_SHAPES)
def test_sigma_residual_is_bit_identical_to_building_sigma(rng, sigma_residuals, n, p):
    sig = Signature(p, n - p)
    motions = _parity_motions(rng, n, p)
    sigma_residuals.clear()
    for g in motions:
        expected = sigma_residual_oracle(g, sig)
        CartanMotion(g, sig, LOOSE)
        in_Q(g, sig)
        assert sigma_residuals == [expected, expected]
        sigma_residuals.clear()


STRADDLED = ["orth", "det", "symmetric", "involution", "sigma", "fiber"]


@pytest.mark.parametrize("bound", STRADDLED)
def test_error_class_straddling_each_bound(rng, bound):
    """Just inside and just outside each bound, the class raised (or none) is
    that of the checks done with sigma(g) built. The fiber check reads its
    own field, ``fiber``, so its bound decides whether a fiber leak is
    certified, as the orth, symmetric and sigma bounds decide theirs."""
    sig = Signature(2, 2)
    flips = 0
    for g in _parity_motions(rng, 4, 2):
        rows = {name: (r, field, factor)
                for name, r, field, factor in certificate_residuals_oracle(g, sig)}
        residual, field, factor = rows[bound]
        if residual == 0.0:
            continue
        outcomes = []
        for side in (1.0 - 1e-9, 1.0 + 1e-9):
            tol = dataclasses.replace(LOOSE, **{field: residual / factor / side})
            expected = certificate_error_oracle(g, sig, tol)
            if expected is None:
                CartanMotion(g, sig, tol)
            else:
                with pytest.raises(expected):
                    CartanMotion(g, sig, tol)
            outcomes.append(expected)
        flips += outcomes[0] != outcomes[1]
    if bound in ("orth", "symmetric", "sigma", "fiber"):
        assert flips > 0


@pytest.mark.parametrize("n, p", PARITY_SHAPES)
def test_tau_is_bit_identical_to_group_arithmetic(rng, n, p):
    sig = Signature(p, n - p)
    for scale in (1.0, 1e6):
        for _ in range(10):
            g = sample_motion(rng, n)
            g = Motion(g.R, scale * g.X)
            expected = se_mul(g, sigma(se_inv(g), sig))
            got = tau(g, sig).motion
            assert np.array_equal(got.R, expected.R) and np.array_equal(got.X, expected.X)


def test_transporter_completes_each_frame_as_alone(rng):
    from cartanbundle import complete_to_special_orthogonal as complete

    for _ in range(20):
        src, dst = sample_bundle_point(rng, 5, 2), sample_bundle_point(rng, 5, 2)
        expected = complete(dst.plane.frame) @ complete(src.plane.frame).T
        assert np.array_equal(find_transporter(src, dst).R, expected)


# (op on a certified motion s and bundle points b, b2; the calls it may make).
LINALG_CALLS = [
    pytest.param(lambda s, b, b2: CartanMotion(s.motion, s.sig), {"eigh": 1, "det": 0},
                 id="CartanMotion"),
    pytest.param(lambda s, b, b2: find_transporter(b, b2), {"qr": 1, "det": 1, "_checked_frame": 0},
                 id="find_transporter"),
    pytest.param(lambda s, b, b2: rho(s), {"eigh": 0, "_checked_frame": 0}, id="rho"),
]


@pytest.mark.parametrize("op, expected", LINALG_CALLS)
def test_linalg_calls_per_call(rng, monkeypatch, op, expected):
    calls = []

    def counting(module, name):
        def counted(*args, _real=getattr(module, name), **kwargs):
            calls.append(name)
            return _real(*args, **kwargs)
        monkeypatch.setattr(module, name, counted)

    spy(monkeypatch, lambda decomposition, a: calls.append(decomposition), ("eigh", "eigvalsh", "det", "qr"))
    for module in (matcore_module, grassmann_module, bundle_module):
        if hasattr(module, "_checked_frame"):
            counting(module, "_checked_frame")
    s = sample_cartan_motion(rng, 4, 2)
    b, b2 = sample_bundle_point(rng, 4, 2), sample_bundle_point(rng, 4, 2)
    calls.clear()
    op(s, b, b2)
    assert {name: calls.count(name) for name in expected} == expected


# Each membership condition has one bound, which the certificate and every
# reader of it apply; a fiber leak of 1e-11 to 1e-7 straddles the fiber bound.
AGREEMENT_SHAPES = [(4, 2), (8, 3), (5, 2)]


def _leaky(rng, n, p):
    """A Cartan-model motion whose translation leaks 10^U(-11, -7) off its plane, and that plane."""
    s = sample_cartan_motion(rng, n, p)
    plane = rho(s).plane
    u = rng.standard_normal(n)
    u -= plane.projector @ u
    leak = 10.0 ** rng.uniform(-11.0, -7.0) * u / np.linalg.norm(u)
    return Motion(s.motion.R, s.motion.X + leak), plane


def test_readers_of_a_certificate_accept_it(rng):
    certified = 0
    for n, p in AGREEMENT_SHAPES:
        sig = Signature(p, n - p)
        for _ in range(300):
            g, plane = _leaky(rng, n, p)
            try:
                s = CartanMotion(g, sig)
            except NotInCartanModelError:
                with pytest.raises(NotInCartanModelError):
                    bundle_point(plane, g.X)
                continue
            certified += 1
            b = rho(s)
            bundle_point(b.plane, b.fiber)
            assert in_Q(s.motion, sig) and in_Q0(s.motion.R, sig)
            try:
                dp_log_full(s)
            except CutLocusError:
                pass
    assert certified >= 500


def test_certificate_rejects_what_in_q_rejects():
    g = Motion(np.eye(4), np.array([1.0, 0, 3e-8, 0]))
    assert not in_Q(g, SIG22)
    with pytest.raises(NotInCartanModelError):
        CartanMotion(g, SIG22)


def test_certificate_rejects_what_in_q0_rejects():
    R = so_exp(1e-8 * skew_wedge(1, 2, 4))
    assert not in_Q0(R, SIG22)
    with pytest.raises(NotInCartanModelError):
        CartanRotation(R, SIG22)


VALUE_TYPES = [
    pytest.param(lambda: Motion(np.eye(3), np.zeros(3)), id="Motion"),
    pytest.param(lambda: Screw(np.zeros((3, 3)), np.zeros(3)), id="Screw"),
    pytest.param(lambda: coordinate_plane(4, 2), id="Plane"),
    pytest.param(lambda: bundle_point(coordinate_plane(4, 2), np.zeros(4)), id="BundlePoint"),
    pytest.param(lambda: CartanMotion(Motion(np.eye(4), np.zeros(4)), SIG22), id="CartanMotion"),
    pytest.param(lambda: CartanRotation(np.eye(4), SIG22), id="CartanRotation"),
    pytest.param(lambda: DpGenerator(2, 2, np.zeros((2, 2))), id="DpGenerator"),
    pytest.param(lambda: DpElement(DpGenerator(2, 2, np.zeros((2, 2))), np.zeros(2)), id="DpElement"),
]


@pytest.mark.parametrize("make", VALUE_TYPES)
def test_value_types_compare_by_identity(make):
    a, b = make(), make()
    assert a == a and not a == b and a != b
    assert len({a, b, a}) == 2
