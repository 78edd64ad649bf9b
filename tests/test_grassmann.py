import math
import tracemalloc

import numpy as np
import pytest

from cartanbundle import (
    CartanRotation,
    CutLocusError,
    DimensionMismatchError,
    DpGenerator,
    NotInCartanModelError,
    Signature,
    cartan_embed0,
    coordinate_plane,
    dp_exp,
    dp_log0,
    in_Q0,
    plane_equal,
    plane_from_frame,
    plane_from_span,
    principal_angles,
    rho0,
    rotate_plane,
    sigma0,
    twisted_act0,
)
from cartanbundle import grassmann as gr
from cartanbundle.sampling import sample_dp_generator, sample_plane, sample_rotation

from oracles import svd_projector_oracle


def rot2(theta):
    c, s = math.cos(theta), math.sin(theta)
    return np.array([[c, -s], [s, c]])


class TestPlane:
    def test_reference_plane(self):
        pl = plane_from_span(np.eye(4)[:, :2])
        assert np.allclose(pl.projector, np.diag([1.0, 1.0, 0.0, 0.0]))
        assert plane_equal(pl, coordinate_plane(4, 2))

    def test_scaling_invariant(self):
        pl = plane_from_span(np.array([[0.0], [2.0]]))
        assert np.allclose(pl.projector, np.diag([0.0, 1.0]))

    def test_diagonal_line(self):
        pl = plane_from_span(np.array([[1.0], [1.0]]))
        assert np.allclose(pl.projector, [[0.5, 0.5], [0.5, 0.5]])

    def test_equality_is_frame_independent(self, rng):
        A = sample_rotation(rng, 4)
        mix = np.array([[0.6, -0.8], [0.8, 0.6]])
        pa = plane_from_span(A[:, :2])
        pb = plane_from_span(A[:, :2] @ mix)
        assert plane_equal(pa, pb)

    def test_sign_flip_is_same_plane(self):
        a = plane_from_span(np.eye(3)[:, :2])
        b = plane_from_span(-np.eye(3)[:, :2])
        assert plane_equal(a, b)

    def test_different_planes(self):
        a = plane_from_span(np.eye(3)[:, :1])
        b = plane_from_span(np.eye(3)[:, 1:2])
        assert not plane_equal(a, b)

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            plane_equal(coordinate_plane(3, 1), coordinate_plane(4, 1))


def test_signature_matrix_is_shared_and_read_only():
    J = Signature(2, 2).matrix
    assert np.array_equal(J, np.diag([-1.0, -1.0, 1.0, 1.0]))
    assert Signature(2, 2).matrix is J
    with pytest.raises(ValueError):
        J[0, 0] = 1.0


def test_reading_the_signs_builds_no_n_by_n_matrix():
    """The first read of j at n = 4096 allocates j alone, not the 134 MB of J = diag(j)."""
    gr._sign_diagonal.cache_clear()
    tracemalloc.start()
    try:
        j = Signature(8, 4088)._signs
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1e6
    assert j.shape == (4096,) and not j.flags.writeable
    assert j[:8].tolist() == [-1.0] * 8 and (j[8:] == 1.0).all()


class TestSigma0:
    def test_fixes_identity(self):
        sig = Signature(1, 2)
        assert np.allclose(sigma0(np.eye(3), sig), np.eye(3))

    def test_reverses_planar_rotation(self):
        sig = Signature(1, 1)
        assert np.allclose(sigma0(rot2(0.8), sig), rot2(-0.8), atol=1e-15)

    def test_involutive_exact(self, rng):
        sig = Signature(2, 2)
        R = sample_rotation(rng, 4)
        assert np.array_equal(sigma0(sigma0(R, sig), sig), R)

    def test_automorphism(self, rng):
        sig = Signature(2, 3)
        A, B = sample_rotation(rng, 5), sample_rotation(rng, 5)
        lhs = sigma0(A @ B, sig)
        rhs = sigma0(A, sig) @ sigma0(B, sig)
        assert np.linalg.norm(lhs - rhs) <= 1e-12 * 5


class TestQ0:
    def test_identity_in_q0(self):
        assert in_Q0(np.eye(3), Signature(1, 2))

    def test_all_of_so2(self, rng):
        sig = Signature(1, 1)
        for _ in range(20):
            theta = float(rng.uniform(-math.pi, math.pi))
            assert in_Q0(rot2(theta), sig)

    def test_partial_rotation_not_in_q0(self):
        sig = Signature(2, 2)
        R = np.eye(4)
        R[:2, :2] = rot2(0.7)
        assert not in_Q0(R, sig)

    @pytest.mark.parametrize("bad", [math.nan, math.inf], ids=["nan", "inf"])
    def test_rejects_non_finite_rotation(self, bad):
        R = np.eye(4)
        R[0, 0] = bad
        with pytest.raises(DimensionMismatchError):
            in_Q0(R, Signature(2, 2))

    def test_invariance_under_twisted_action(self, rng):
        sig = Signature(2, 2)
        for _ in range(50):
            R = dp_exp(sample_dp_generator(rng, 2, 2)).mat
            A = sample_rotation(rng, 4)
            assert in_Q0(twisted_act0(A, R, sig), sig)

    def test_action_law(self, rng):
        sig = Signature(2, 3)
        A1, A2 = sample_rotation(rng, 5), sample_rotation(rng, 5)
        R = dp_exp(sample_dp_generator(rng, 2, 3)).mat
        lhs = twisted_act0(A1 @ A2, R, sig)
        rhs = twisted_act0(A1, twisted_act0(A2, R, sig), sig)
        assert np.linalg.norm(lhs - rhs) <= 1e-12 * 5

    def test_orbit_of_identity(self, rng):
        sig = Signature(2, 2)
        A = sample_rotation(rng, 4)
        J = sig.matrix
        assert np.allclose(twisted_act0(A, np.eye(4), sig), A @ J @ A.T @ J)


class TestCartanEmbedding:
    def test_reference_plane_maps_to_identity(self):
        cr = cartan_embed0(coordinate_plane(4, 2))
        assert np.allclose(cr.mat, np.eye(4), atol=1e-12)

    def test_line_maps_to_double_angle(self, rng):
        for _ in range(20):
            phi = float(rng.uniform(-1.4, 1.4))
            pl = plane_from_span(np.array([[math.cos(phi)], [math.sin(phi)]]))
            cr = cartan_embed0(pl)
            assert np.allclose(cr.mat, rot2(2 * phi), atol=1e-12)

    def test_rho0_identity_is_reference(self):
        sig = Signature(2, 2)
        cr = CartanRotation.certify(np.eye(4), sig)
        assert plane_equal(rho0(cr), coordinate_plane(4, 2))

    def test_rho0_half_angle_line(self, rng):
        sig = Signature(1, 1)
        for _ in range(20):
            theta = float(rng.uniform(-2.9, 2.9))
            cr = CartanRotation.certify(rot2(theta), sig)
            pl = rho0(cr)
            V = np.array([math.cos(theta / 2), math.sin(theta / 2)])
            assert np.linalg.norm(pl.projector - np.outer(V, V)) <= 1e-10

    def test_rho0_of_orbit_point(self, rng):
        sig = Signature(2, 3)
        for _ in range(30):
            A = sample_rotation(rng, 5)
            cr = CartanRotation.certify(twisted_act0(A, np.eye(5), sig), sig)
            expected = plane_from_span(A[:, :2])
            assert plane_equal(rho0(cr), expected)

    def test_roundtrip_from_plane(self, rng):
        for _ in range(30):
            pl = sample_plane(rng, 5, 2)
            assert plane_equal(rho0(cartan_embed0(pl)), pl)

    def test_roundtrip_from_rotation(self, rng):
        sig = Signature(2, 2)
        for _ in range(30):
            A = sample_rotation(rng, 4)
            R = twisted_act0(A, np.eye(4), sig)
            cr = CartanRotation.certify(R, sig)
            R2 = cartan_embed0(rho0(cr)).mat
            assert np.linalg.norm(R2 - R) <= 1e-9

    def test_embedding_is_frame_independent(self, rng):
        A = sample_rotation(rng, 4)
        mix = rot2(1.1)
        pa = plane_from_span(A[:, :2])
        pb = plane_from_span(A[:, :2] @ mix)
        assert np.linalg.norm(cartan_embed0(pa).mat - cartan_embed0(pb).mat) <= 1e-10

    def test_equivariance(self, rng):
        sig = Signature(2, 2)
        for _ in range(30):
            pl = sample_plane(rng, 4, 2)
            cr = cartan_embed0(pl)
            A = sample_rotation(rng, 4)
            acted = CartanRotation.certify(twisted_act0(A, cr.mat, sig), sig)
            assert plane_equal(rho0(acted), rotate_plane(A, rho0(cr)))

    def test_certify_rejects_non_member(self):
        sig = Signature(2, 2)
        R = np.eye(4)
        R[:2, :2] = rot2(0.7)
        with pytest.raises(NotInCartanModelError):
            CartanRotation.certify(R, sig)

    def test_certify_rejects_wrong_eigenspace_dim(self):
        # symmetric involution R J with eigenvalue -1 of multiplicity 3, not p=1:
        # R is in the ambient fixed-point set but on the wrong component
        sig = Signature(1, 3)
        R = np.diag([1.0, 1.0, -1.0, -1.0])
        S = R @ sig.matrix
        assert np.allclose(S @ S, np.eye(4))
        with pytest.raises(NotInCartanModelError):
            CartanRotation.certify(R, sig)

    def test_projector_relation(self, rng):
        # A J A^T = I - 2 P for the projector P onto the plane
        sig = Signature(2, 2)
        pl = sample_plane(rng, 4, 2)
        cr = cartan_embed0(pl)
        S = cr.mat @ sig.matrix
        assert np.allclose(S, np.eye(4) - 2 * svd_projector_oracle(pl.frame), atol=1e-10)


class TestDpGenerator:
    def test_zero_generator(self):
        cr = dp_exp(DpGenerator(p=2, q=2, B=np.zeros((2, 2))))
        assert np.allclose(cr.mat, np.eye(4))

    def test_scalar_convention(self, rng):
        for _ in range(10):
            theta = float(rng.uniform(-2.9, 2.9))
            cr = dp_exp(DpGenerator(p=1, q=1, B=np.array([[theta]])))
            assert np.allclose(cr.mat, rot2(theta), atol=1e-12)

    def test_embed_shape(self):
        gen = DpGenerator(p=1, q=2, B=np.array([[1.0], [2.0]]))
        W = gen.embed()
        assert np.allclose(W, -W.T)
        assert np.allclose(W[1:, 0], [1, 2])
        assert np.allclose(W[0, 1:], [-1, -2])

    def test_exp_lands_in_model(self, rng):
        sig = Signature(2, 3)
        for _ in range(30):
            cr = dp_exp(sample_dp_generator(rng, 2, 3))
            assert in_Q0(cr.mat, sig)
            rho0(cr)  # must not raise

    def test_log_identity(self):
        gen = dp_log0(CartanRotation.certify(np.eye(4), Signature(2, 2)))
        assert np.allclose(gen.B, 0)

    def test_log_scalar(self, rng):
        for _ in range(10):
            theta = float(rng.uniform(-2.9, 2.9))
            cr = CartanRotation.certify(rot2(theta), Signature(1, 1))
            gen = dp_log0(cr)
            assert np.allclose(gen.B, [[theta]], atol=1e-10)

    def test_log_roundtrip(self, rng):
        for _ in range(50):
            gen = sample_dp_generator(rng, 2, 3, bound=math.pi - 0.1)
            cr = dp_exp(gen)
            gen2 = dp_log0(cr)
            assert np.linalg.norm(gen2.B - gen.B) <= 1e-8
            assert np.linalg.norm(dp_exp(gen2).mat - cr.mat) <= 1e-8

    @pytest.mark.parametrize("p, q", [(5, 3), (15, 8)])
    @pytest.mark.parametrize("tiny", [1e-8, 3e-8, 1e-7])
    def test_log_roundtrip_with_a_tiny_angle(self, p, q, tiny):
        # cos(tiny) is within a few eps of 1 and of the cosines of the p - q
        # zero angles, so the angle must be read off its sine.
        rng = np.random.default_rng(11)
        phi = np.r_[tiny, rng.uniform(0.3, 1.4, min(p, q) - 1)]
        U = np.linalg.qr(rng.standard_normal((q, phi.size)))[0]
        V = np.linalg.qr(rng.standard_normal((p, phi.size)))[0]
        gen = DpGenerator(p=p, q=q, B=(U * (2 * phi)) @ V.T)
        gen2 = dp_log0(dp_exp(gen))
        assert np.linalg.norm(gen2.B - gen.B) <= 1e-8
        assert np.linalg.norm(dp_exp(gen2).mat - dp_exp(gen).mat) <= 1e-8

    def test_cut_locus(self):
        cr = dp_exp(DpGenerator(p=1, q=1, B=np.array([[math.pi]])))
        with pytest.raises(CutLocusError):
            dp_log0(cr)


def test_principal_angles(rng):
    a = coordinate_plane(4, 2)
    b = rotate_plane(sample_rotation(rng, 4), a)
    phi = principal_angles(a, b)
    assert phi.shape == (2,)
    assert np.all(phi >= -1e-12) and np.all(phi <= math.pi / 2 + 1e-12)
    for c in (a, b):
        assert np.allclose(principal_angles(c, c), 0, atol=1e-14)


@pytest.mark.parametrize("n, p", [(6, 3), (15, 8)])
@pytest.mark.parametrize("phi", [1e-8, 1e-6, 1e-3])
def test_principal_angles_read_small_angles(rng, n, p, phi):
    Q = sample_rotation(rng, n)
    F = np.eye(n, p)
    F[:, 0] = 0.0
    F[0, 0], F[p, 0] = math.cos(phi), math.sin(phi)
    angles = principal_angles(plane_from_frame(Q[:, :p]), plane_from_frame(Q @ F))
    assert np.all(np.diff(angles) >= 0)
    assert abs(angles[-1] - phi) <= 1e-6 * phi
    assert np.all(angles[:-1] <= 1e-14)
