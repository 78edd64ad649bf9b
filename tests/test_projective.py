import math

import numpy as np
import pytest

from cartanbundle import (
    CartanRotation,
    DimensionMismatchError,
    Screw,
    Signature,
    half_angle_line,
    line_bundle_exp,
    moebius_grid,
    reflection_about_hyperplane_normal,
    rho0,
    rotation_in_plane,
    se_exp,
)
from cartanbundle.projective import MOEBIUS_COLUMNS
from cartanbundle.sampling import sample_unit_direction


def rot2(theta):
    c, s = math.cos(theta), math.sin(theta)
    return np.array([[c, -s], [s, c]])


class TestRotationInPlane:
    def test_zero_angle(self):
        U = np.array([0.0, 1.0, 0.0])
        assert np.allclose(rotation_in_plane(0.0, U), np.eye(3))

    def test_quarter_turn(self):
        R = rotation_in_plane(math.pi / 2, np.array([0.0, 1.0]))
        assert np.allclose(R, [[0, -1], [1, 0]], atol=1e-12)

    def test_column_convention(self, rng):
        for _ in range(20):
            n = int(rng.integers(2, 6))
            U = sample_unit_direction(rng, n)
            theta = float(rng.uniform(-3, 3))
            R = rotation_in_plane(theta, U)
            E1 = np.eye(n)[:, 0]
            assert np.allclose(R @ E1, math.cos(theta) * E1 + math.sin(theta) * U, atol=1e-12)
            assert np.allclose(R @ U, -math.sin(theta) * E1 + math.cos(theta) * U, atol=1e-12)

    def test_fixes_complement(self):
        R = rotation_in_plane(1.3, np.array([0.0, 0.0, 1.0]))
        assert np.allclose(R @ [0, 1, 0], [0, 1, 0], atol=1e-12)

    def test_rejects_non_orthogonal_direction(self):
        with pytest.raises(DimensionMismatchError):
            rotation_in_plane(1.0, np.array([1.0, 0.0]))

    @pytest.mark.parametrize(
        "theta, U",
        [
            (math.nan, [0.0, 1.0]),
            (math.inf, [0.0, 1.0]),
            (1.0, [0.0, math.nan]),
            (1.0, [math.nan, 1.0]),
        ],
        ids=["nan-angle", "inf-angle", "nan-direction", "nan-e1-component"],
    )
    def test_rejects_non_finite_input(self, theta, U):
        with pytest.raises(DimensionMismatchError):
            rotation_in_plane(theta, np.array(U))


@pytest.mark.parametrize(
    "call",
    [
        lambda U: rotation_in_plane(0.3, U),
        lambda U: half_angle_line(0.3, U),
        lambda U: line_bundle_exp(0.3, U, 1.0),
    ],
    ids=["rotation_in_plane", "half_angle_line", "line_bundle_exp"],
)
def test_scalar_direction_is_a_dimension_mismatch(call):
    with pytest.raises(DimensionMismatchError):
        call(5.0)


class TestReflection:
    def test_e1_is_signature(self):
        S = reflection_about_hyperplane_normal(np.array([1.0, 0.0, 0.0]))
        assert np.allclose(S, np.diag([-1.0, 1.0, 1.0]))

    def test_e2_in_plane(self):
        S = reflection_about_hyperplane_normal(np.array([0.0, 1.0]))
        assert np.allclose(S, np.diag([1.0, -1.0]))

    def test_involution(self, rng):
        for _ in range(20):
            V = rng.standard_normal(4)
            V /= np.linalg.norm(V)
            S = reflection_about_hyperplane_normal(V)
            assert np.allclose(S @ S, np.eye(4), atol=1e-12)
            assert np.allclose(S @ V, -V, atol=1e-12)
            assert np.isclose(np.linalg.det(S), -1.0)

    @pytest.mark.parametrize("V", [[math.nan, 0.0], [math.inf, 0.0], [0.6, 0.6], [[0.6, 0.8]], 1.0],
                             ids=["nan", "inf", "not-unit", "row-matrix", "scalar"])
    def test_rejects_non_unit_normal(self, V):
        with pytest.raises(DimensionMismatchError):
            reflection_about_hyperplane_normal(np.array(V))


def two_reflections_residual(theta, U):
    """|R_{theta,U} J - (I - 2 V V^T)|, V the unit vector of the half-angle line."""
    n = len(U)
    J = np.diag([-1.0] + [1.0] * (n - 1))
    V = half_angle_line(theta, U).frame[:, 0]
    return np.linalg.norm(rotation_in_plane(theta, U) @ J - reflection_about_hyperplane_normal(V))


class TestTwoReflections:
    def test_zero_angle(self):
        assert two_reflections_residual(0.0, np.array([0.0, 1.0])) <= 1e-10 * 2

    def test_quarter_turn(self):
        assert two_reflections_residual(math.pi / 2, np.array([0.0, 1.0])) <= 1e-10 * 2

    def test_random(self, rng):
        for _ in range(50):
            n = int(rng.integers(2, 6))
            U = sample_unit_direction(rng, n)
            theta = float(rng.uniform(-3, 3))
            assert two_reflections_residual(theta, U) <= 1e-10 * n


class TestHalfAngleLine:
    def test_zero(self):
        line = half_angle_line(0.0, np.array([0.0, 1.0]))
        assert (line.n, line.p) == (2, 1)
        assert np.allclose(line.projector, np.outer([1.0, 0.0], [1.0, 0.0]))

    def test_pi(self):
        line = half_angle_line(math.pi, np.array([0.0, 1.0]))
        assert np.allclose(line.projector, np.outer([0.0, 1.0], [0.0, 1.0]), atol=1e-12)

    def test_matches_rho0(self, rng):
        for _ in range(50):
            n = int(rng.integers(2, 6))
            U = sample_unit_direction(rng, n)
            theta = float(rng.uniform(0, 2 * math.pi))
            sig = Signature(1, n - 1)
            cr = CartanRotation.certify(rotation_in_plane(theta, U), sig)
            plane = rho0(cr)
            assert np.linalg.norm(plane.projector - half_angle_line(theta, U).projector) <= 1e-8


class TestLineBundleExp:
    def test_zero_angle_limit(self):
        m = line_bundle_exp(0.0, np.array([0.0, 1.0]), 1.0)
        assert np.allclose(m.R, np.eye(2))
        assert np.allclose(m.X, [1.0, 0.0])

    def test_pi_value(self):
        m = line_bundle_exp(math.pi, np.array([0.0, 1.0]), 1.0)
        assert np.allclose(m.R, -np.eye(2), atol=1e-12)
        assert np.allclose(m.X, [0.0, 2 / math.pi], atol=1e-14)

    def test_matches_se_exp(self, rng):
        for _ in range(100):
            n = int(rng.integers(2, 6))
            U = sample_unit_direction(rng, n)
            theta = float(rng.uniform(0, 2 * math.pi))
            lam = float(rng.uniform(-2, 2))
            m = line_bundle_exp(theta, U, lam)
            E1 = np.eye(n)[:, 0]
            xi = Screw(-theta * (np.outer(E1, U) - np.outer(U, E1)), lam * E1)
            g = se_exp(xi)
            assert np.linalg.norm(m.homogeneous() - g.homogeneous()) <= 1e-10

    def test_fiber_on_half_angle_line(self, rng):
        for _ in range(30):
            U = sample_unit_direction(rng, 4)
            theta = float(rng.uniform(0, 2 * math.pi))
            lam = float(rng.uniform(-2, 2))
            m = line_bundle_exp(theta, U, lam)
            V = half_angle_line(theta, U).frame[:, 0]
            assert np.linalg.norm(m.X - V * (V @ m.X)) <= 1e-10


    @pytest.mark.parametrize("lam", [math.nan, math.inf, -math.inf], ids=["nan", "inf", "-inf"])
    def test_rejects_non_finite_lambda(self, lam):
        with pytest.raises(DimensionMismatchError):
            line_bundle_exp(0.5, np.array([0.0, 1.0]), lam)


class TestMoebiusGrid:
    def test_single_record_identity(self):
        records = moebius_grid(1, 1, 0.0)
        assert len(records) == 1
        rec = records[0]
        assert rec["theta"] == 0.0 and rec["lambda"] == 0.0
        assert (rec["r00"], rec["r11"]) == (1.0, 1.0)
        assert (rec["x0"], rec["x1"]) == (0.0, 0.0)

    def test_grid_size_and_columns(self):
        records = moebius_grid(8, 5, 1.5)
        assert len(records) == 40
        assert set(records[0]) == set(MOEBIUS_COLUMNS)

    def test_records_in_q_with_fiber_on_line(self):
        from cartanbundle import Motion, Signature, in_Q

        sig = Signature(1, 1)
        for rec in moebius_grid(16, 5, 1.0):
            m = Motion(
                np.array([[rec["r00"], rec["r01"]], [rec["r10"], rec["r11"]]]),
                np.array([rec["x0"], rec["x1"]]),
            )
            assert in_Q(m, sig)
            V = np.array([math.cos(rec["line_angle"]), math.sin(rec["line_angle"])])
            Y = np.array([rec["y0"], rec["y1"]])
            assert np.linalg.norm(Y - V * (V @ Y)) <= 1e-10

    def test_pi_record_matches_closed_form(self):
        records = moebius_grid(2, 3, 1.0)
        rec = next(r for r in records if r["theta"] == math.pi and r["lambda"] == 1.0)
        assert np.isclose(rec["y0"], 0.0, atol=1e-14)
        assert np.isclose(rec["y1"], 2 / math.pi)

    def test_seam_reversal(self):
        from cartanbundle.verify import moebius_seam_check

        pairs, max_dev, flips_ok, resolution = moebius_seam_check(128, 9, 2.0)
        assert pairs == 9
        assert flips_ok
        assert max_dev <= resolution
