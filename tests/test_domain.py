"""The input domain: every array the library accepts has finite entries of
magnitude at most 1e150 (``matcore._MAX_ABS``), else
``DimensionMismatchError``.

Below the ceiling no residual norm can overflow. Above it, a Frobenius norm
reads inf past about 1.3e154, and every membership bound tol (1 + |x|) then
holds for any x. Without the ceiling, the three regression cases at the end
were accepted that way.
"""

import json
import math

import numpy as np
import pytest

from cartanbundle import (
    CartanMotion,
    DimensionMismatchError,
    DpElement,
    DpGenerator,
    Motion,
    Screw,
    Signature,
    bundle_act,
    bundle_point,
    double_projection,
    dp_exp_full,
    identity_motion,
    in_Q,
    in_Q0,
    is_fixed_point,
    plane_from_frame,
    reflection_about_hyperplane_normal,
    se_exp,
    tau,
    twisted_act,
    y_omega_solve,
)
from cartanbundle.cli import main
from cartanbundle.matcore import _MAX_ABS, check_finite_matrix, check_finite_vector
from cartanbundle.projective import unit_direction
from cartanbundle.sampling import make_rng, sample_rotation
from cartanbundle.serialize import dumps, mat_from_json, mat_to_json, vec_from_json

SIG = Signature(2, 2)
PLANE = plane_from_frame(np.eye(4)[:, :2])
POINT = bundle_point(PLANE, np.array([1.0, 2.0, 0.0, 0.0]))
I4, Z4 = np.eye(4), np.zeros(4)


def _vec(bad, n=4, at=0):
    """e_1 of R^n with entry ``at`` set to ``bad``."""
    x = np.zeros(n)
    x[0] = 1.0
    x[at] = bad
    return x


def _rot(bad):
    R = np.eye(4)
    R[0, 1] = bad
    return R


# One row per entry point that checks its input with the matcore validators:
# name -> call(bad) with one entry of an input set to bad.
SITES = {
    "bundle_act.rotation": lambda bad: bundle_act(Motion(_rot(bad), Z4), POINT, SIG),
    "bundle_act.translation": lambda bad: bundle_act(Motion(I4, _vec(bad)), POINT, SIG),
    "bundle_point": lambda bad: bundle_point(PLANE, _vec(bad)),
    "DpElement": lambda bad: DpElement(DpGenerator(2, 2, np.zeros((2, 2))), _vec(bad, 2)),
    "double_projection": lambda bad: double_projection(I4, _vec(bad), SIG),
    "in_Q.translation": lambda bad: in_Q(Motion(I4, _vec(bad)), SIG),
    "in_Q.rotation": lambda bad: in_Q(Motion(_rot(bad), Z4), SIG),
    "in_Q0": lambda bad: in_Q0(_rot(bad), SIG),
    "is_fixed_point.translation": lambda bad: is_fixed_point(Motion(I4, _vec(bad)), SIG),
    "is_fixed_point.rotation": lambda bad: is_fixed_point(Motion(_rot(bad), Z4), SIG),
    "twisted_act.a": lambda bad: twisted_act(Motion(I4, _vec(bad)), identity_motion(4), SIG),
    "twisted_act.g": lambda bad: twisted_act(identity_motion(4), Motion(_rot(bad), Z4), SIG),
    "tau": lambda bad: tau(Motion(I4, _vec(bad)), SIG),
    "CartanMotion": lambda bad: CartanMotion(Motion(I4, _vec(bad, at=2)), SIG),
    "se_exp": lambda bad: se_exp(Screw(np.zeros((4, 4)), _vec(bad))),
    "y_omega_solve": lambda bad: y_omega_solve(np.zeros((4, 4)), _vec(bad)),
    "mat_from_json": lambda bad: mat_from_json({"rows": 2, "cols": 2, "data": [bad, 0, 0, 1]}),
    "vec_from_json": lambda bad: vec_from_json([bad, 0.0], 2),
    "unit_direction": lambda bad: unit_direction(_vec(bad, 3, at=1)),
    "reflection_about_hyperplane_normal": (
        lambda bad: reflection_about_hyperplane_normal(_vec(bad, 3))
    ),
}


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, 1e151, -1e151])
@pytest.mark.parametrize("site", sorted(SITES))
def test_every_entry_point_rejects_entries_outside_the_domain(site, bad):
    with pytest.raises(DimensionMismatchError) as info:
        SITES[site](bad)
    assert info.value.code == "dimension_mismatch"
    top = info.value.context["max_abs"]
    assert math.isnan(top) if math.isnan(bad) else top == abs(bad)


@pytest.mark.parametrize("part, call", [
    ("rotation", lambda: bundle_act(Motion(_rot(math.nan), Z4), POINT, SIG)),
    ("translation", lambda: bundle_act(Motion(I4, _vec(math.nan)), POINT, SIG)),
])
def test_bundle_act_names_the_bad_part_of_the_motion(part, call):
    # the motion is checked at entry, not blamed as the fiber it would give
    with pytest.raises(DimensionMismatchError, match=part):
        call()


def test_the_ceiling_itself_is_inside():
    assert _MAX_ABS == 1e150
    x = np.array([_MAX_ABS, -_MAX_ABS, 0.0])
    assert check_finite_vector(x, 3) is x
    assert check_finite_matrix(x[None, :])[0, 1] == -_MAX_ABS
    above = np.nextafter(_MAX_ABS, math.inf)
    for bad in (above, -above):
        with pytest.raises(DimensionMismatchError):
            check_finite_vector(np.array([bad, 0.0]), 2)


@pytest.mark.parametrize("shape", [(), (0,), (3, 1), (2,)])
def test_the_vector_validator_checks_the_shape(shape):
    with pytest.raises(DimensionMismatchError):
        check_finite_vector(np.ones(shape), 3)


def test_off_plane_fiber_past_the_overflow_is_rejected():
    # |Y| = 1e155 with a part off the plane of relative size 1e-3. Without the
    # ceiling it was accepted, since |P Y - Y| and its bound both read inf.
    Y = 1e155 * np.array([0.6, 0.8, 0.0, 0.0]) + 1e152 * np.array([0.0, 0.0, 1.0, 0.0])
    with pytest.raises(DimensionMismatchError):
        bundle_point(PLANE, Y)


@pytest.mark.parametrize("axis", [0, 2])
def test_motion_past_the_overflow_is_rejected(axis):
    # Translation 1e155 e_3 lies in the plane of I J; 1e155 e_1 is off the
    # model (sigma residual 2e155). Without the ceiling both were accepted,
    # and in_Q said True.
    g = Motion(np.eye(4), 1e155 * np.eye(4)[axis])
    with pytest.raises(DimensionMismatchError):
        CartanMotion(g, SIG)
    with pytest.raises(DimensionMismatchError):
        in_Q(g, SIG)


def test_cli_exp_past_the_overflow_is_an_error(tmp_path, capsys):
    # Without the ceiling this exited 0 and printed a motion of nulls.
    omega = np.array([[0.0, -1e200], [1e200, 0.0]])
    path = tmp_path / "xi.json"
    path.write_text(dumps({"omega": mat_to_json(omega), "v": [0.0, 0.0]}))
    code = main(["exp", "--se", "--in", str(path)])
    captured = capsys.readouterr()
    assert code == 1 and captured.out == ""
    err = json.loads(captured.err)
    assert err["error"] == "dimension_mismatch"


@pytest.mark.parametrize("make", [
    # tau's translation 2 P X reaches 2 |X|; here max|X| is 2.6e150
    lambda: tau(Motion(sample_rotation(make_rng(1, 0), 4), 1e150 * np.ones(4)), SIG),
    # Y_omega v reaches sqrt(p) |v|; here one angle of 2.33 on (1, 1) / sqrt(2) gives 1.02e150
    lambda: dp_exp_full(DpElement(
        DpGenerator(2, 2, 2.33 * np.outer([1.0, 0.0], [0.5 ** 0.5, 0.5 ** 0.5])), 1e150 * np.ones(2)
    )),
])
def test_certified_output_past_the_ceiling_is_rejected(make):
    # Without the check, the motion was certified by construction with a
    # translation past the ceiling, and then failed its own public check:
    # the constructor, a pickle round trip and bundle_point of rho raised.
    with pytest.raises(DimensionMismatchError) as info:
        make()
    assert info.value.context["max_abs"] > _MAX_ABS
