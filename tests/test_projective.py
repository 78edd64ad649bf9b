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
    rho0,
    rotation_in_plane,
    se_exp,
)
from cartanbundle.projective import MOEBIUS_COLUMNS
from cartanbundle.sampling import make_rng, sample_unit_direction
from oracles import longdouble_line_oracle


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

    @pytest.mark.parametrize("U", [[0.0, 0.6, 0.6], [0.0, 2.0], [[0.0, 1.0]]],
                             ids=["short", "long", "row-matrix"])
    def test_rejects_a_direction_that_is_no_unit_vector(self, U):
        # a direction is a 1-d array of norm 1, within 1e-12
        with pytest.raises(DimensionMismatchError):
            rotation_in_plane(1.0, np.array(U))

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


@pytest.mark.parametrize(
    "call",
    [
        lambda x: rotation_in_plane(x, np.array([0.0, 1.0])),
        lambda x: half_angle_line(x, np.array([0.0, 1.0])),
        lambda x: line_bundle_exp(x, np.array([0.0, 1.0]), 1.0),
        lambda x: line_bundle_exp(1.0, np.array([0.0, 1.0]), x),
        lambda x: moebius_grid(2, 3, x),
    ],
    ids=["rotation_in_plane", "half_angle_line", "line_bundle_exp.theta", "line_bundle_exp.lam",
         "moebius_grid"],
)
@pytest.mark.parametrize("x", ["a", None, [1.0, 2.0], 1j], ids=["str", "None", "list", "complex"])
def test_a_scalar_that_is_no_real_number_is_a_dimension_mismatch(call, x):
    with pytest.raises(DimensionMismatchError):
        call(x)


def two_reflections_residual(theta, U):
    """|R_{theta,U} J - (I - 2 V V^T)|, V the unit vector of the half-angle line."""
    n = len(U)
    J = np.diag([-1.0] + [1.0] * (n - 1))
    V = half_angle_line(theta, U).frame[:, 0]
    return np.linalg.norm(rotation_in_plane(theta, U) @ J - (np.eye(n) - 2.0 * np.outer(V, V)))


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

    def test_each_column_holds_its_value(self):
        # theta, lambda, R row-major, X, theta/2 and X again, bit for bit
        num_theta, lambdas = 7, np.linspace(-1.5, 1.5, 4)
        records = moebius_grid(num_theta, 4, 1.5)
        e2 = np.array([0.0, 1.0])
        for k, rec in enumerate(records):
            theta, lam = 2.0 * math.pi * (k // 4) / num_theta, float(lambdas[k % 4])
            m = line_bundle_exp(theta, e2, lam)
            X = m.X.tolist()
            assert tuple(rec) == MOEBIUS_COLUMNS
            assert list(rec.values()) == [theta, lam, *m.R.ravel().tolist(), *X, theta / 2, *X]

    @pytest.mark.parametrize(
        "num_theta, num_lambda", [(2.5, 3), (2, 3.0), (True, 3), (2, "3"), (0, 3), (2, -1)]
    )
    def test_sizes_are_positive_integers(self, num_theta, num_lambda):
        # moebius_grid(2.5, 3, 1.0) raised a raw TypeError, and True ran as 1
        with pytest.raises(DimensionMismatchError):
            moebius_grid(num_theta, num_lambda, 1.0)

    def test_each_record_is_its_single_call_bit_for_bit(self):
        # the grid is one stacked call of line_bundle_exp's kernel
        U = np.array([0.0, 1.0])
        for rec in moebius_grid(16, 5, 3.0):
            m = line_bundle_exp(rec["theta"], U, rec["lambda"])
            assert m.R.ravel().tolist() == [rec["r00"], rec["r01"], rec["r10"], rec["r11"]]
            assert m.X.tolist() == [rec["x0"], rec["x1"]] == [rec["y0"], rec["y1"]]

    def test_numpy_sizes_give_the_same_records(self):
        assert moebius_grid(np.int64(3), np.int32(2), 1.0) == moebius_grid(3, 2, 1.0)

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
        # the Moebius twist: the line geodesic closes at theta = 2 pi and 4 pi,
        # and the frame it carries comes back as -e_1, then +e_1
        U = np.array([0.0, 1.0])
        for theta, sign in ((2.0 * math.pi, -1.0), (4.0 * math.pi, 1.0)):
            assert np.linalg.norm(half_angle_line(theta, U).frame[:, 0] - [sign, 0.0]) <= 1e-15
            for lam in (-2.0, 0.5, 2.0):
                m = line_bundle_exp(theta, U, lam)
                assert np.linalg.norm(m.R - np.eye(2)) <= 1e-15 and np.linalg.norm(m.X) <= 1e-15 * (1.0 + abs(lam))


ANGLES = {
    "uniform": lambda rng, k: rng.uniform(0.0, 2.0 * math.pi, k),
    "below-1e-4": lambda rng, k: rng.uniform(0.0, 1e-4, k),
    "near-2pi": lambda rng, k: 2.0 * math.pi + rng.uniform(-1e-6, 1e-6, k),
    "wide": lambda rng, k: rng.uniform(-7.0, 7.0, k),
}


@pytest.mark.skipif(np.finfo(np.longdouble).eps > 1e-18, reason="long double is no wider than double")
@pytest.mark.parametrize("angles", sorted(ANGLES))
@pytest.mark.parametrize("n", [2, 3, 5, 8])
def test_line_maps_match_a_long_double_reference(n, angles):
    """rotation_in_plane and line_bundle_exp against the long-double Rodrigues
    and half-angle forms, with |lam| from 1e-3 to 2e6: R within 32 n eps and
    X within 4 n eps (1 + |lam|), the bounds of dp_exp_full's reference test."""
    rng = make_rng(20261019, n)
    eps = np.finfo(float).eps
    for theta in ANGLES[angles](rng, 50).tolist():
        U = sample_unit_direction(rng, n)
        lam = float(rng.choice([-1.0, 1.0]) * 10 ** rng.uniform(-3.0, math.log10(2e6)))
        R, X = longdouble_line_oracle(theta, U, lam)
        m = line_bundle_exp(theta, U, lam)
        for rotation in (rotation_in_plane(theta, U), m.R):
            assert np.linalg.norm((rotation - R).astype(float)) <= 32 * n * eps
        assert np.linalg.norm((m.X - X).astype(float)) <= 4 * n * eps * (1 + abs(lam))
