import math

import numpy as np
import pytest

from cartanbundle import (
    BranchAmbiguityError,
    DimensionMismatchError,
    IllConditionedSpectrumError,
    Motion,
    Screw,
    SingularMapError,
    Tolerances,
    identity_motion,
    se_bracket,
    se_exp,
    se_inv,
    se_log,
    se_mul,
    so_exp,
    so_log,
    y_omega,
    y_omega_solve,
)
from cartanbundle.liegroup import _factors
from cartanbundle.matcore import _wedge
from cartanbundle.sampling import (
    make_rng,
    sample_motion,
    sample_rotation,
    sample_screw,
    sample_skew,
    sample_skew_bounded,
)

from lapack_spy import spy
from oracles import homogeneous_exp_oracle, series_exp_oracle, y_series_oracle


def rot2(theta):
    c, s = math.cos(theta), math.sin(theta)
    return np.array([[c, -s], [s, c]])


def pi2(theta):
    return np.array([[0.0, -theta], [theta, 0.0]])


class TestGroupArithmetic:
    def test_identity_element(self, rng):
        g = sample_motion(rng, 3)
        assert np.allclose(se_mul(identity_motion(3), g).homogeneous(), g.homogeneous())

    def test_inverse_formula(self, rng):
        g = sample_motion(rng, 4)
        e = se_mul(g, Motion(g.R.T, -g.R.T @ g.X))
        assert np.allclose(e.homogeneous(), np.eye(5), atol=1e-12)

    def test_se2_product(self):
        g = se_mul(Motion(rot2(math.pi / 2), np.zeros(2)), Motion(np.eye(2), np.array([1.0, 0.0])))
        assert np.allclose(g.R, rot2(math.pi / 2))
        assert np.allclose(g.X, [0.0, 1.0], atol=1e-15)

    def test_inverse_of_translation(self):
        g = se_inv(Motion(np.eye(3), np.array([1.0, 2.0, 3.0])))
        assert np.allclose(g.X, [-1, -2, -3])

    def test_inverse_of_rotation(self):
        g = se_inv(Motion(rot2(0.7), np.zeros(2)))
        assert np.allclose(g.R, rot2(-0.7))

    def test_random_inverse(self, rng):
        for _ in range(50):
            g = sample_motion(rng, 5)
            d = se_mul(g, se_inv(g)).homogeneous() - np.eye(6)
            assert np.linalg.norm(d) <= 1e-12 * 5

    def test_dimension_mismatch(self, rng):
        with pytest.raises(DimensionMismatchError):
            se_mul(sample_motion(rng, 3), sample_motion(rng, 4))


class TestBracket:
    def test_self_bracket_vanishes(self, rng):
        xi = sample_screw(rng, 4)
        b = se_bracket(xi, xi)
        assert np.allclose(b.omega, 0) and np.allclose(b.v, 0)

    def test_translations_commute(self):
        a = Screw(np.zeros((3, 3)), np.array([1.0, 0, 0]))
        b = Screw(np.zeros((3, 3)), np.array([0, 1.0, 0]))
        br = se_bracket(a, b)
        assert np.allclose(br.omega, 0) and np.allclose(br.v, 0)

    def test_rotation_on_translation(self, rng):
        omega = sample_skew(rng, 3)
        v = rng.standard_normal(3)
        br = se_bracket(Screw(omega, np.zeros(3)), Screw(np.zeros((3, 3)), v))
        assert np.allclose(br.omega, 0)
        assert np.allclose(br.v, omega @ v)

    def test_jacobi(self, rng):
        xs = [sample_screw(rng, 4) for _ in range(3)]
        total = np.zeros((5, 5))
        for i, j, k in [(0, 1, 2), (1, 2, 0), (2, 0, 1)]:
            total += se_bracket(xs[i], se_bracket(xs[j], xs[k])).matrix()
        assert np.linalg.norm(total) <= 1e-12


class TestSoExpLog:
    def test_exp_zero(self):
        assert np.allclose(so_exp(np.zeros((3, 3))), np.eye(3))

    def test_exp_convention(self):
        R = so_exp(-(math.pi / 2) * _wedge(1, 2, 2))
        assert np.allclose(R @ [1, 0], [0, 1], atol=1e-12)

    def test_exp_matches_series(self, rng):
        for _ in range(100):
            n = int(rng.integers(2, 7))
            W = float(rng.uniform(0.1, 2)) * sample_skew(rng, n)
            assert np.linalg.norm(so_exp(W) - series_exp_oracle(W)) <= 1e-9

    def test_log_identity(self):
        assert np.allclose(so_log(np.eye(3)), 0)

    def test_log_canonical_block(self):
        R = np.eye(3)
        R[:2, :2] = rot2(math.pi / 2)
        W = so_log(R)
        expected = np.zeros((3, 3))
        expected[:2, :2] = pi2(math.pi / 2)
        # the log is basis-dependent only through Q; compare exponentials and norms
        assert np.allclose(so_exp(W), R, atol=1e-12)
        assert np.allclose(np.sort(np.abs(np.linalg.eigvals(W))), np.sort(np.abs(np.linalg.eigvals(expected))), atol=1e-12)

    def test_log_roundtrip(self, rng):
        for _ in range(100):
            n = int(rng.integers(2, 7))
            W = sample_skew_bounded(rng, n, math.pi - 0.01)
            R = so_exp(W)
            assert np.linalg.norm(so_exp(so_log(R)) - R) <= 1e-8

    def test_branch_error_at_pi(self):
        with pytest.raises(BranchAmbiguityError):
            so_log(-np.eye(2))

    def test_branch_opt_in(self):
        W = so_log(-np.eye(2), allow_pi=True)
        assert np.allclose(so_exp(W), -np.eye(2), atol=1e-12)

    def test_reflection_under_loose_tolerance_raises(self):
        # diag(-1, 1, 1) passes an SO(n) check this loose, but its single -1
        # eigenvalue cannot be paired at pi
        R = np.diag([-1.0, 1.0, 1.0])
        with pytest.raises(IllConditionedSpectrumError):
            so_log(R, Tolerances(orth=1.0))


class TestYOmega:
    def test_zero_omega(self, rng):
        v = rng.standard_normal(4)
        assert np.allclose(y_omega(np.zeros((4, 4)), v), v)

    def test_half_angle_value(self):
        Y = y_omega(pi2(math.pi / 2), np.array([1.0, 0.0]))
        assert np.allclose(Y, [2 / math.pi, 2 / math.pi], atol=1e-14)

    def test_matches_series(self, rng):
        for _ in range(100):
            n = int(rng.integers(2, 7))
            W = float(rng.uniform(0.1, 2)) * sample_skew(rng, n)
            v = rng.standard_normal(n)
            assert np.linalg.norm(y_omega(W, v) - y_series_oracle(W, v)) <= 1e-9

    def test_defining_identity(self, rng):
        for _ in range(100):
            n = int(rng.integers(2, 7))
            W = float(rng.uniform(0.1, 3)) * sample_skew(rng, n)
            v = rng.standard_normal(n)
            lhs = W @ y_omega(W, v)
            rhs = (so_exp(W) - np.eye(n)) @ v
            assert np.linalg.norm(lhs - rhs) <= 1e-10

    def test_accepts_lists(self):
        W = pi2(math.pi / 2)
        assert np.array_equal(y_omega(W, [1.0, 0.0]), y_omega(W, np.array([1.0, 0.0])))
        assert np.array_equal(y_omega_solve(W, [1.0, 0.0]), y_omega_solve(W, np.array([1.0, 0.0])))

    def test_solve_zero_omega(self, rng):
        Y = rng.standard_normal(3)
        assert np.allclose(y_omega_solve(np.zeros((3, 3)), Y), Y)

    def test_solve_half_angle(self):
        v = y_omega_solve(pi2(math.pi / 2), np.array([2 / math.pi, 2 / math.pi]))
        assert np.allclose(v, [1.0, 0.0], atol=1e-14)

    def test_solve_roundtrip(self, rng):
        for _ in range(100):
            n = int(rng.integers(2, 7))
            W = sample_skew_bounded(rng, n, math.pi)
            v = rng.standard_normal(n)
            assert np.linalg.norm(y_omega_solve(W, y_omega(W, v)) - v) <= 1e-9

    def test_singular_outside_branch(self):
        with pytest.raises(SingularMapError):
            y_omega_solve(pi2(2 * math.pi), np.array([1.0, 0.0]))

    def test_the_singular_cutoff_is_fixed(self):
        # the cutoff is a constant: y_omega_solve takes (omega, Y) only, and
        # at theta = 2 pi still names the angle; Y is checked before the factor
        with pytest.raises(TypeError):
            y_omega_solve(pi2(1.0), np.array([1.0, 0.0]), Tolerances())
        with pytest.raises(SingularMapError) as info:
            y_omega_solve(pi2(2 * math.pi), np.array([1.0, 0.0]))
        assert info.value.code == "y_omega_singular"
        assert info.value.context["angle"] == pytest.approx(2 * math.pi)
        with pytest.raises(DimensionMismatchError):
            y_omega_solve(pi2(2 * math.pi), np.array([math.nan, 0.0]))


class TestSeExpLog:
    def test_pure_translation(self, rng):
        v = rng.standard_normal(3)
        g = se_exp(Screw(np.zeros((3, 3)), v))
        assert np.allclose(g.R, np.eye(3)) and np.allclose(g.X, v)

    def test_line_bundle_value(self):
        # angle pi, unit coefficient: translation lands at (0, 2/pi)
        g = se_exp(Screw(-math.pi * _wedge(1, 2, 2), np.array([1.0, 0.0])))
        assert np.allclose(g.R, -np.eye(2), atol=1e-12)
        assert np.allclose(g.X, [0.0, 2 / math.pi], atol=1e-14)

    def test_matches_block_series(self, rng):
        for _ in range(100):
            n = int(rng.integers(2, 7))
            xi = sample_screw(rng, n)
            H = se_exp(xi).homogeneous()
            assert np.linalg.norm(H - homogeneous_exp_oracle(xi.omega, xi.v)) <= 1e-9

    def test_log_of_translation(self):
        xi = se_log(Motion(np.eye(2), np.array([3.0, -1.0])))
        assert np.allclose(xi.omega, 0) and np.allclose(xi.v, [3, -1])

    def test_log_half_angle_value(self):
        g = Motion(rot2(math.pi / 2), np.array([2 / math.pi, 2 / math.pi]))
        xi = se_log(g)
        assert np.allclose(so_exp(xi.omega), g.R, atol=1e-12)
        assert np.allclose(xi.v, [1.0, 0.0], atol=1e-12)

    def test_roundtrip(self, rng):
        for _ in range(100):
            n = int(rng.integers(2, 7))
            W = sample_skew_bounded(rng, n, math.pi - 0.01)
            v = rng.standard_normal(n)
            g = se_exp(Screw(W, v))
            xi = se_log(g)
            d = se_exp(xi).homogeneous() - g.homogeneous()
            assert np.linalg.norm(d) <= 1e-8

    def test_branch_error_propagates(self):
        with pytest.raises(BranchAmbiguityError):
            se_log(Motion(-np.eye(2), np.zeros(2)))


@pytest.fixture
def eigh_calls(monkeypatch):
    """The operand of each eigh run, counted at its LAPACK gufunc."""
    calls = []
    spy(monkeypatch, lambda decomposition, a: calls.append(a), ("eigh",))
    return calls


class TestOneFormPerCall:
    @pytest.mark.parametrize("n", [3, 8])
    def test_se_exp_and_se_log_run_one_eigh_each(self, rng, n, eigh_calls):
        # every angle below arccos(-1/4), so none lies below the log's split
        xi = Screw(sample_skew_bounded(rng, n, 1.8), rng.standard_normal(n))
        g = se_exp(xi)
        assert len(eigh_calls) == 1
        se_log(g)
        assert len(eigh_calls) == 2

    @pytest.mark.parametrize("n", [3, 8])
    def test_se_log_pairs_only_below_the_split(self, rng, n, eigh_calls):
        # the largest angle is pi - 0.1, below the split: one more eigh pairs it
        g = se_exp(Screw((math.pi - 0.1) * _unit_skew(rng, n), rng.standard_normal(n)))
        se_log(g)
        assert len(eigh_calls) == 3


@pytest.mark.parametrize("n", [3, 8])
@pytest.mark.parametrize(
    "call",
    [
        lambda omega, v: se_exp(Screw(omega, v)),
        lambda omega, v: so_exp(omega),
        y_omega,
        y_omega_solve,
    ],
    ids=["se_exp", "so_exp", "y_omega", "y_omega_solve"],
)
def test_exp_side_runs_one_real_eigh_of_omega_t_omega(rng, n, call, eigh_calls):
    omega = sample_skew_bounded(rng, n, 3.0)
    call(omega, rng.standard_normal(n))
    (a,) = eigh_calls
    assert a.dtype == np.float64
    assert np.array_equal(a, omega.T @ omega)


def _unit_skew(rng, n):
    W = sample_skew(rng, n)
    return W / np.linalg.norm(W, 2)


@pytest.mark.parametrize("n", [2, 3, 5, 8, 32])
class TestTwoFormRouteOracle:
    """se_exp / se_log against so_exp, so_log, y_omega and y_omega_solve composed."""

    @pytest.mark.parametrize("scale", [0.5e-4, 2e-4, 1.0, 3.0])
    def test_exp_and_log(self, rng, n, scale):
        # the largest angle is `scale`; at 2e-4 the smaller ones reach
        # small angles, below 1e-4
        omega = scale * _unit_skew(rng, n)
        v = rng.standard_normal(n)
        g = se_exp(Screw(omega, v))
        bound = 1e-10 * n * (1 + np.linalg.norm(g.X))
        assert np.linalg.norm(g.R - so_exp(omega)) <= bound
        assert np.linalg.norm(g.X - y_omega(omega, v)) <= bound
        xi = se_log(g)
        W = so_log(g.R)
        assert np.linalg.norm(xi.omega - W) <= bound
        assert np.linalg.norm(xi.v - y_omega_solve(W, g.X)) <= bound

    def test_log_at_pi(self, rng, n):
        D = np.eye(n)
        D[:2, :2] = -np.eye(2)
        if n > 3:
            D[2:, 2:] = sample_rotation(rng, n - 2)
        Q = sample_rotation(rng, n)
        g = Motion(Q @ D @ Q.T, rng.standard_normal(n))
        xi = se_log(g, allow_pi=True)
        W = so_log(g.R, allow_pi=True)
        bound = 1e-10 * n * (1 + np.linalg.norm(g.X))
        assert np.linalg.norm(xi.omega - W) <= bound
        assert np.linalg.norm(xi.v - y_omega_solve(W, g.X)) <= bound
        assert np.linalg.norm(se_exp(xi).homogeneous() - g.homogeneous()) <= bound


_I2, _O2, _NAN = np.eye(2), np.zeros((2, 2)), math.nan


@pytest.mark.parametrize(
    "call, error",
    [
        (lambda: se_log(Motion(-_I2, np.array([_NAN, 0.0]))), DimensionMismatchError),
        (lambda: se_log(Motion(-_I2, np.zeros(3))), DimensionMismatchError),
        (lambda: se_log(Motion(2 * _I2, np.array([_NAN, 0.0]))), IllConditionedSpectrumError),
        (
            lambda: se_log(Motion(-_I2, np.array([math.inf, 0.0])), allow_pi=True),
            DimensionMismatchError,
        ),
        (lambda: se_exp(Screw(_I2, np.zeros(3))), IllConditionedSpectrumError),
        (lambda: se_exp(Screw(_O2, np.array([_NAN, 0.0]))), DimensionMismatchError),
        (lambda: se_exp(Screw(_O2, np.zeros(3))), DimensionMismatchError),
        (lambda: se_exp(Screw(np.full((2, 2), _NAN), np.zeros(2))), DimensionMismatchError),
        (lambda: y_omega(pi2(1.0), [_NAN, 0.0]), DimensionMismatchError),
        (lambda: y_omega(pi2(1.0), [math.inf, 0.0]), DimensionMismatchError),
        (lambda: y_omega_solve(pi2(1.0), [_NAN, 0.0]), DimensionMismatchError),
        (lambda: y_omega_solve(pi2(1.0), [0.0, -math.inf]), DimensionMismatchError),
    ],
    ids=[
        "log-pi-nan-X",
        "log-pi-short-X",
        "log-not-orthogonal",
        "log-allow-pi-inf-X",
        "exp-not-skew-short-v",
        "exp-nan-v",
        "exp-short-v",
        "exp-nan-omega",
        "y-omega-nan-v",
        "y-omega-inf-v",
        "y-omega-solve-nan-Y",
        "y-omega-solve-inf-Y",
    ],
)
def test_invalid_input_error_class(call, error):
    with pytest.raises(error):
        call()


def _factor_angles():
    """Seeded angles: uniform and log-uniform below 1e-4 (down to 1e-300), [1e-4, 7], negatives, 2 pi +- 1e-6."""
    rng = make_rng(20261020, 0)
    return np.concatenate([
        rng.uniform(0.0, 1e-4, 20_000),
        10.0 ** rng.uniform(-300.0, -4.0, 20_000),
        rng.uniform(1e-4, 7.0, 20_000),
        -rng.uniform(0.0, 7.0, 20_000),
        -(10.0 ** rng.uniform(-300.0, -4.0, 5_000)),
        2.0 * math.pi + rng.uniform(-1e-6, 1e-6, 20_000),
    ])


@pytest.mark.skipif(np.finfo(np.longdouble).eps > 1e-18, reason="long double is no wider than double")
def test_half_angle_factor_is_within_one_eps_of_a_long_double_reference():
    theta = _factor_angles()
    h = theta.astype(np.longdouble) / 2
    reference = np.sin(h) / h
    assert np.all(np.abs((_factors(theta) - reference) / reference) <= np.finfo(float).eps)


def test_half_angle_factor_keeps_its_bits_from_1e_4_up():
    theta = _factor_angles()
    theta = theta[np.abs(theta) >= 1e-4]
    expected = [2.0 * math.sin(0.5 * t) / t for t in theta.tolist()]
    assert _factors(theta).tobytes() == np.array(expected).tobytes()


def test_half_angle_factor_is_one_at_zero():
    f = _factors(np.array([0.0, -0.0]))
    assert f.tolist() == [1.0, 1.0] and f.dtype == np.float64
