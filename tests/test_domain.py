"""The input domain: every array the library accepts has a real numeric
dtype, finite entries of magnitude at most 1e150 (``matcore._MAX_ABS``) and
the shape its signature or plane fixes, every real scalar passes the same
entry test, and every size or index is an integer, else
``DimensionMismatchError``.

Below the ceiling no residual norm can overflow. Above it, a Frobenius norm
reads inf past about 1.3e154, and every membership bound tol (1 + |x|) then
holds for any x. Without the ceiling, the three regression cases at the end
were accepted that way.
"""

import json
import math
import warnings
from functools import partial

import numpy as np
import pytest

from cartanbundle import (
    BundlePoint,
    CartanMotion,
    CartanRotation,
    DimensionMismatchError,
    DpElement,
    DpGenerator,
    Motion,
    Plane,
    Screw,
    Signature,
    Tolerances,
    bundle_act,
    bundle_point,
    coordinate_plane,
    double_projection,
    dp_exp_full,
    find_transporter,
    half_angle_line,
    identity_motion,
    in_Q,
    in_Q0,
    is_fixed_point,
    line_bundle_exp,
    moebius_grid,
    plane_from_frame,
    plane_from_span,
    principal_angles,
    rotate_plane,
    rotation_in_plane,
    se_exp,
    se_log,
    sigma,
    sigma0,
    so_exp,
    tau,
    twisted_act,
    twisted_act0,
    y_omega,
    y_omega_solve,
)
from cartanbundle.cli import main
from cartanbundle.matcore import (
    _MAX_ABS,
    _MAX_DIM,
    _is_dim,
    _projector,
    _wedge,
    check_finite_matrix,
    check_finite_vector,
    check_skew,
    check_special_orthogonal,
    complete_to_special_orthogonal,
    eigenspace_of_symmetric_involution,
    orthonormalize,
)
from cartanbundle.projective import unit_direction
from cartanbundle.sampling import make_rng, sample_motion, sample_rotation, sample_skew, sample_unit_direction
from cartanbundle.serialize import dumps, mat_from_json, mat_to_json, plane_from_json, vec_from_json

SIG = Signature(2, 2)
PLANE = plane_from_frame(np.eye(4)[:, :2])
POINT = bundle_point(PLANE, np.array([1.0, 2.0, 0.0, 0.0]))
POINT_5_2 = bundle_point(coordinate_plane(5, 2), np.zeros(5))
I4, Z4 = np.eye(4), np.zeros(4)
E2 = np.array([0.0, 1.0])


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
    "sigma": lambda bad: sigma(Motion(_rot(bad), Z4), SIG),
    "sigma0": lambda bad: sigma0(_rot(bad), SIG),
    "twisted_act0": lambda bad: twisted_act0(I4, _rot(bad), SIG),
    "y_omega_solve": lambda bad: y_omega_solve(np.zeros((4, 4)), _vec(bad)),
    "mat_from_json": lambda bad: mat_from_json({"rows": 2, "cols": 2, "data": [bad, 0, 0, 1]}),
    "vec_from_json": lambda bad: vec_from_json([bad, 0.0], 2),
    "unit_direction": lambda bad: unit_direction(_vec(bad, 3, at=1)),
    "orthonormalize": lambda bad: orthonormalize(_vec(bad)[:, None]),
    "complete_to_special_orthogonal": lambda bad: complete_to_special_orthogonal(_vec(bad)[:, None]),
}

# The real scalars; line_bundle_exp(1.0, e_2, 1e300) gave an X of 8.4e299.
SCALAR_SITES = {
    "rotation_in_plane.theta": lambda bad: rotation_in_plane(bad, E2),
    "half_angle_line.theta": lambda bad: half_angle_line(bad, E2),
    "line_bundle_exp.theta": lambda bad: line_bundle_exp(bad, E2, 1.0),
    "line_bundle_exp.lam": lambda bad: line_bundle_exp(1.0, E2, bad),
    "moebius_grid.lambda_max": lambda bad: moebius_grid(2, 3, bad),
}
SITES.update(SCALAR_SITES)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, 1e151, -1e151])
@pytest.mark.parametrize("site", sorted(SITES))
def test_every_entry_point_rejects_entries_outside_the_domain(site, bad):
    with pytest.raises(DimensionMismatchError) as info:
        SITES[site](bad)
    assert info.value.code == "dimension_mismatch"
    top = info.value.context["max_abs"]
    assert math.isnan(top) if math.isnan(bad) else top == abs(bad)


@pytest.mark.parametrize("bad", [10**400, -10**400])
@pytest.mark.parametrize("site", sorted(SCALAR_SITES))
def test_a_scalar_past_the_float_range_is_outside_the_domain(site, bad):
    # float(10**400) raised a raw OverflowError out of check_finite_scalar
    with pytest.raises(DimensionMismatchError) as info:
        SCALAR_SITES[site](bad)
    assert info.value.context["max_abs"] == math.inf


@pytest.mark.parametrize("bad", [10**400, -10**400])
def test_a_tolerance_past_the_float_range_is_rejected(bad):
    # Tolerances reads its fields as check_finite_scalar reads a scalar: 10**400 is inf, not a raw OverflowError
    with pytest.raises(ValueError, match="tolerance orth must be a finite positive"):
        Tolerances(orth=bad)


@pytest.mark.parametrize("bad", ["0.3", b"0.3", np.str_("0.3"), 0.3 + 0j, np.complex128(0.3), np.complex64(0.3),
                                 True, np.bool_(True)],
                         ids=["str", "bytes", "numpy-str", "complex", "complex128", "complex64", "bool", "numpy-bool"])
@pytest.mark.parametrize("site", sorted(SCALAR_SITES))
def test_a_scalar_that_is_not_a_real_number_is_a_dimension_mismatch(site, bad):
    # rotation_in_plane("0.3", e_2) parsed the string and returned a rotation,
    # a NumPy complex lam ran with only a ComplexWarning, and a bool was read as 0 or 1
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DimensionMismatchError, match="real number"):
            SCALAR_SITES[site](bad)


@pytest.mark.parametrize("good", [0.3, 1, np.float32(0.3), np.float64(0.3), np.int64(1)],
                         ids=["float", "int", "float32", "float64", "int64"])
@pytest.mark.parametrize("site", sorted(SCALAR_SITES))
def test_a_real_scalar_of_any_numeric_type_is_accepted(site, good):
    SCALAR_SITES[site](good)


# name -> call(n) with one dimension set to n.
DIMENSION_SITES = {
    "coordinate_plane": lambda n: coordinate_plane(n, 2),
    "identity_motion": identity_motion,
    "Signature": lambda n: Signature(1, n),
    "sample_rotation": lambda n, rng=make_rng(0): sample_rotation(rng, n),
    "sample_skew": lambda n, rng=make_rng(0): sample_skew(rng, n),
    "sample_motion": lambda n, rng=make_rng(0): sample_motion(rng, n),
    "sample_unit_direction": lambda n, rng=make_rng(0): sample_unit_direction(rng, n),
    "moebius_grid": lambda n: moebius_grid(n, 2, 1.0),
}


@pytest.mark.parametrize("n", [10**400, 2**40], ids=["10**400", "2**40"])
@pytest.mark.parametrize("site", sorted(DIMENSION_SITES))
def test_a_dimension_past_the_largest_is_rejected_before_any_array_is_made(monkeypatch, site, n):
    # coordinate_plane(10**400, 2) raised NumPy's raw "Maximum allowed
    # dimension exceeded" ValueError out of np.eye, and 2**40 would ask for
    # a 2**40 x 2**40 array
    def no_array(*args, **kwargs):
        raise AssertionError("an array was made")

    for name in ("zeros", "eye", "empty", "ones", "arange", "concatenate"):
        monkeypatch.setattr(np, name, no_array)
    with pytest.raises(DimensionMismatchError):
        DIMENSION_SITES[site](n)


def test_a_signature_whose_numpy_sum_would_wrap_is_rejected():
    # 2**62 + 2**62 wraps to a negative int64, which is below any upper limit
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DimensionMismatchError):
            Signature(np.int64(2**62), np.int64(2**62))


def test_the_largest_dimension_is_the_largest_numpy_can_index():
    # an (n + 1) x (n + 1) float64 array needs 8 (n + 1)^2 bytes, at most 2^63 - 1
    assert 8 * (_MAX_DIM + 1) ** 2 <= 2**63 - 1 < 8 * (_MAX_DIM + 2) ** 2
    assert _is_dim(_MAX_DIM) and _is_dim(np.int64(_MAX_DIM)) and _is_dim(1)
    assert not any(_is_dim(k) for k in (_MAX_DIM + 1, 0, True, 2.0))


# name -> call(bad) with one array operand replaced by bad, an array whose
# dtype is not real numeric.
DTYPE_SITES = {
    "so_exp": lambda bad: so_exp(bad),
    "se_exp": lambda bad: se_exp(Screw(bad, Z4)),
    "tau.translation": lambda bad: tau(Motion(I4, bad[0]), SIG),
    "plane_from_frame": lambda bad: plane_from_frame(bad[:, :2]),
    "rotation_in_plane.U": lambda bad: rotation_in_plane(0.3, bad[1]),
    "DpGenerator": lambda bad: DpGenerator(2, 2, bad[:2, :2]),
    "check_finite_vector": lambda bad: check_finite_vector(bad[0], 4),
    "orthonormalize": lambda bad: orthonormalize(bad[:, :2]),
    "complete_to_special_orthogonal": lambda bad: complete_to_special_orthogonal(bad[:, :2]),
}


@pytest.mark.parametrize("dtype", [complex, str, object, bool])
@pytest.mark.parametrize("site", sorted(DTYPE_SITES))
def test_an_array_that_is_not_real_numeric_is_a_dimension_mismatch(site, dtype):
    # so_exp of a complex skew returned the exponential of its real part with
    # only a ComplexWarning, rotation_in_plane(0.3, ["0", "1"]) parsed the
    # strings, and a bool array was read as 0 and 1. W is skew, its first two
    # columns are a frame and its second row a unit direction orthogonal to
    # e_1, so every site accepts it as floats.
    W = _wedge(1, 4, 4) + _wedge(2, 3, 4)
    DTYPE_SITES[site](W)
    with pytest.raises(DimensionMismatchError, match="real numeric"):
        DTYPE_SITES[site](W * (1 + 0.5j) if dtype is complex else W.astype(dtype))


@pytest.mark.parametrize("fiber", [["1", "0", "0", "0"], np.array([1.0, 0.0, 0.0, 0.0], dtype=complex)],
                         ids=["str", "complex128"])
@pytest.mark.parametrize("make", [bundle_point, BundlePoint], ids=["bundle_point", "BundlePoint"])
def test_a_fiber_that_is_not_real_numeric_is_a_dimension_mismatch(make, fiber):
    # the fiber was copied as floats before its check: the strings were
    # parsed to the fiber e_1, and the complex fiber ran with a ComplexWarning
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DimensionMismatchError, match="real numeric"):
            make(coordinate_plane(4, 2), fiber)


@pytest.mark.parametrize(
    "call",
    [
        lambda: so_exp([[0.0, 1.0], [-1.0]]),
        lambda: rotation_in_plane(0.3, [0.0, [1.0, 0.0]]),
        lambda: check_finite_matrix([[1.0], [2.0, 3.0]]),
    ],
    ids=["so_exp", "rotation_in_plane", "check_finite_matrix"],
)
def test_a_ragged_array_is_a_dimension_mismatch(call):
    # NumPy's "inhomogeneous shape" ValueError escaped raw
    with pytest.raises(DimensionMismatchError, match="rectangular"):
        call()


# The shape rule: the signature (or the plane) fixes n, and every operand is
# checked against it. name -> call(R, X) with a rotation R and a translation
# X, or call(R) for the maps of a rotation alone; I4 and Z4 are good.
MOTION_SITES = {
    "sigma": lambda R, X: sigma(Motion(R, X), SIG),
    "in_Q": lambda R, X: in_Q(Motion(R, X), SIG),
    "is_fixed_point": lambda R, X: is_fixed_point(Motion(R, X), SIG),
    "twisted_act.a": lambda R, X: twisted_act(Motion(R, X), identity_motion(4), SIG),
    "twisted_act.g": lambda R, X: twisted_act(identity_motion(4), Motion(R, X), SIG),
    "bundle_act": lambda R, X: bundle_act(Motion(R, X), POINT, SIG),
    "tau": lambda R, X: tau(Motion(R, X), SIG),
    "CartanMotion": lambda R, X: CartanMotion(Motion(R, X), SIG),
    "double_projection": lambda R, X: double_projection(R, X, SIG),
}
ROTATION_SITES = {
    "sigma0": lambda R: sigma0(R, SIG),
    "in_Q0": lambda R: in_Q0(R, SIG),
    "twisted_act0.A": lambda R: twisted_act0(R, I4, SIG),
    "twisted_act0.R": lambda R: twisted_act0(I4, R, SIG),
    "CartanRotation": lambda R: CartanRotation(R, SIG),
    "rotate_plane": lambda R: rotate_plane(R, PLANE),
}
# Maps without a signature: only squareness is fixed.
SQUARE_SITES = {
    "check_special_orthogonal": check_special_orthogonal,
    "check_skew": lambda W: check_skew(0.0 * W),
    "se_log": lambda R: se_log(Motion(R, np.zeros(len(R)))),
    "eigenspace_of_symmetric_involution": lambda S: eigenspace_of_symmetric_involution(S, 1),
}
WIDE, SMALL = np.eye(4, 3), np.eye(3)
# A map that takes stacks reads their leading shape from its first operand. name -> call(M, x) with its
# first operand M, a matrix or a stack of them, and a second operand x of the leading shape that M fixes.
STACK_SITES = {
    "se_exp": lambda W, v: se_exp(Screw(0.0 * W, v)),
    "y_omega": lambda W, v: y_omega(0.0 * W, v),
    "y_omega_solve": lambda W, Y: y_omega_solve(0.0 * W, Y),
    "se_log": lambda R, X: se_log(Motion(R, X)),
    "sigma": lambda R, X: sigma(Motion(R, X), SIG),
    "in_Q": lambda R, X: in_Q(Motion(R, X), SIG),
    "is_fixed_point": lambda R, X: is_fixed_point(Motion(R, X), SIG),
    "twisted_act.a": lambda R, X: twisted_act(Motion(R, X), Motion(R, np.zeros(R.shape[:-1])), SIG),
    "twisted_act.g": lambda R, X: twisted_act(Motion(R, np.zeros(R.shape[:-1])),
                                              Motion(np.tile(I4, X.shape[:-1] + (1, 1)), X), SIG),
    "twisted_act0": lambda A, x: twisted_act0(A, np.tile(I4, x.shape[:-1] + (1, 1)), SIG),
    "double_projection": lambda A, X: double_projection(A, X, SIG),
}
I4S, Z4S, Z4S2 = np.tile(I4, (3, 1, 1)), np.zeros((3, 4)), np.zeros((2, 4))
SHAPE_CASES = [
    *(
        pytest.param(partial(call, R, X), id=f"{name}-{label}")
        for name, call in MOTION_SITES.items()
        for label, R, X in [
            ("rotation-4x3", WIDE, Z4),
            ("rotation-3x3", SMALL, Z4),
            ("translation-3", I4, np.zeros(3)),
        ]
    ),
    *(
        pytest.param(partial(call, R), id=f"{name}-{label}")
        for name, call in ROTATION_SITES.items()
        for label, R in [("rotation-4x3", WIDE), ("rotation-3x3", SMALL)]
    ),
    *(
        pytest.param(partial(call, WIDE), id=f"{name}-matrix-4x3")
        for name, call in SQUARE_SITES.items()
    ),
    # a plane takes (n, p) from its frame, which may not have more columns than rows
    pytest.param(lambda: Plane(WIDE.T), id="Plane-frame-3x4"),
    pytest.param(
        lambda: plane_from_json({"n": 4, "p": 2, "frame": mat_to_json(np.eye(4, 3))}),
        id="plane_from_json-frame-4x3",
    ),
    # operands that must share (n, p), and arguments of the wrong size
    pytest.param(lambda: bundle_act(identity_motion(4), POINT_5_2, SIG), id="bundle_act-point-5-2"),
    pytest.param(lambda: bundle_act(identity_motion(4), POINT, Signature(1, 3)), id="bundle_act-point-4-2-sig-1-3"),
    pytest.param(lambda: find_transporter(POINT, POINT_5_2), id="find_transporter-5-2"),
    pytest.param(lambda: find_transporter(POINT, bundle_point(coordinate_plane(4, 1), Z4)), id="find_transporter-4-1"),
    pytest.param(lambda: principal_angles(PLANE, POINT_5_2.plane), id="principal_angles-5-2"),
    pytest.param(lambda: principal_angles(PLANE, coordinate_plane(4, 1)), id="principal_angles-4-1"),
    pytest.param(lambda: eigenspace_of_symmetric_involution(SMALL, 0), id="eigenspace_of_symmetric_involution-0"),
    pytest.param(lambda: rotation_in_plane(0.3, [1.0]), id="rotation_in_plane-direction-1"),
    # a second operand of another leading shape than the first's, and one vector beside a stack of matrices
    *(
        pytest.param(partial(call, M, x), id=f"{name}-{label}")
        for name, call in STACK_SITES.items()
        for label, M, x in [("stack-3-beside-stack-2", I4S, Z4S2), ("stack-3-beside-one", I4S, Z4),
                            ("one-beside-stack-3", I4, Z4S)]
    ),
]


@pytest.mark.parametrize("call", SHAPE_CASES)
def test_every_operand_has_the_shape_its_signature_fixes(call):
    with pytest.raises(DimensionMismatchError) as info:
        call()
    assert info.value.code == "dimension_mismatch"


def test_the_good_operands_of_the_shape_table_pass():
    for call in MOTION_SITES.values():
        call(I4, Z4)
    for call in (*ROTATION_SITES.values(), *SQUARE_SITES.values()):
        call(I4)


def test_the_good_operands_of_the_stack_table_pass():
    # each stack case of the shape table fails by its shapes alone
    for call in STACK_SITES.values():
        call(I4S, Z4S)
        call(I4, Z4)


@pytest.mark.parametrize(
    "p, q", [(2.5, 1.5), (True, 1), (1, False), (2.0, 2), ("2", 2), (0, 2), (2, -1)]
)
def test_signature_takes_positive_integers_only(p, q):
    # Signature(2.5, 1.5) and Signature(True, 1) used to construct, and then
    # .matrix raised a raw TypeError.
    with pytest.raises(DimensionMismatchError) as info:
        Signature(p, q)
    assert info.value.code == "dimension_mismatch"


@pytest.mark.parametrize("n, p", [(2.5, 1), (4, 1.5), (4.0, 2), (True, 1), (3, 3), (4, None), (None, 2), ("4", 2)])
def test_coordinate_plane_checks_its_signature(n, p):
    # coordinate_plane(2.5, 1) and (4, None) raised a raw TypeError, and
    # (3, 3) built a p = n plane that no Signature admits
    with pytest.raises(DimensionMismatchError):
        coordinate_plane(n, p)


@pytest.mark.parametrize("build", [plane_from_frame, Plane, plane_from_span])
def test_a_plane_from_raw_arrays_checks_its_signature(build):
    # plane_from_frame(np.eye(3)) built a p = n plane that no Signature
    # admits; the error surfaced only later, from cartan_embed0
    with pytest.raises(DimensionMismatchError, match="signature"):
        build(np.eye(3))


@pytest.mark.parametrize("n", [2.5, 4.0, True, 0, -1])
def test_identity_motion_takes_an_integer_of_at_least_one(n):
    # identity_motion(2.5) raised a raw TypeError, and identity_motion(0)
    # returned a 0-dimensional motion
    with pytest.raises(DimensionMismatchError):
        identity_motion(n)


@pytest.mark.parametrize("sampler", [sample_rotation, sample_skew, sample_motion, sample_unit_direction])
@pytest.mark.parametrize("n", [2.5, 4.0, True])
def test_samplers_take_an_integer_n(sampler, n):
    # sample_rotation(make_rng(0), 2.5) raised a raw TypeError, and True ran as 1
    with pytest.raises(DimensionMismatchError):
        sampler(make_rng(0), n)


def test_integer_sizes_may_be_numpy_integers():
    assert coordinate_plane(np.int64(4), np.int32(2)).frame.shape == (4, 2)
    assert identity_motion(np.int64(3)).R.shape == (3, 3)
    assert sample_rotation(make_rng(0), np.int64(3)).shape == (3, 3)


def test_signature_takes_numpy_integers():
    assert Signature(np.int64(2), np.int32(2)) == Signature(2, 2)
    assert np.array_equal(Signature(np.int64(2), 2).matrix, np.diag([-1.0, -1, 1, 1]))


def test_generator_block_from_a_list():
    # The block's shape was read as B.shape, so a list raised AttributeError.
    gen = DpGenerator(1, 1, [[0.5]])
    assert gen.B.dtype == float and np.array_equal(gen.embed(), [[0.0, -0.5], [0.5, 0.0]])
    with pytest.raises(DimensionMismatchError):
        DpGenerator(1, 2, [[0.5]])


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
    code = main(["exp", "--in", str(path)])
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


def test_is_fixed_point_reads_a_list_rotation_as_in_Q_does():
    # The residual is built from the checked parts, not from the value type,
    # whose n reads R.shape; a list R used to raise a raw AttributeError.
    g = Motion(np.eye(2).tolist(), [0.0, 0.0])
    sig = Signature(1, 1)
    assert in_Q(g, sig)
    assert is_fixed_point(g, sig)
    moved = Motion([[0.0, -1.0], [1.0, 0.0]], [1.0, 0.0])
    assert not is_fixed_point(moved, sig)


@pytest.mark.parametrize("p, q", [(1.0, 1.0), (2, 2.0), (True, 1), (0, 2), ("1", 1)])
def test_dp_generator_checks_its_signature(p, q):
    # (1.0, 1.0) used to construct, and embed() then raised a raw TypeError
    with pytest.raises(DimensionMismatchError):
        DpGenerator(p, q, [[0.5]])


@pytest.mark.parametrize(
    "frame",
    [np.array(1.0), None, np.eye(4, 2) * (1 + 0.5j), [["1", "0"], ["0", "1"]], np.full((4, 2), 1e300),
     [[10**400], [0]], {"frame": np.eye(4, 2)}, np.eye(4, 2, dtype=bool)],
    ids=["0-d", "None", "complex", "str", "1e300", "10**400", "dict", "bool"],
)
@pytest.mark.parametrize("take", [orthonormalize, complete_to_special_orthogonal],
                         ids=["orthonormalize", "complete_to_special_orthogonal"])
def test_a_frame_is_checked_as_a_matrix(take, frame):
    # no raw ValueError on a 0-d array or None, TypeError on a dict or
    # OverflowError at 10**400; no ComplexWarning, no inf at 1e300 and no
    # parsed strings
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DimensionMismatchError) as info:
            take(frame)
    assert info.value.code == "dimension_mismatch"


def test_projector_takes_a_stack_and_any_real_frame():
    # orthonormality is not checked: a scaled frame gives its F F^T
    F = np.stack([np.eye(4, 2), 2.0 * np.eye(4)[:, 1:3]])
    P = _projector(F)
    for i in range(2):
        assert P[i].tobytes() == (F[i] @ F[i].T).tobytes()


@pytest.mark.parametrize(
    "eigenvalue",
    [np.array([1.0, -1.0]), np.array(-1.0), True, np.bool_(True), 1 + 0j, "1", 10**400, math.nan, 0.5],
    ids=["array", "0-d", "bool", "numpy-bool", "complex", "str", "10**400", "nan", "0.5"],
)
def test_the_eigenvalue_of_an_eigenspace_is_a_real_number_of_plus_or_minus_one(eigenvalue):
    # an array eigenvalue raised NumPy's raw "truth value ... is ambiguous"
    # ValueError, and True (and a 0-d array of -1) were read as numbers
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DimensionMismatchError):
            eigenspace_of_symmetric_involution(np.eye(3), eigenvalue)


@pytest.mark.parametrize("eigenvalue", [1, -1, 1.0, np.int64(-1), np.float32(1.0)])
def test_a_real_eigenvalue_of_plus_or_minus_one_is_accepted(eigenvalue):
    F = eigenspace_of_symmetric_involution(np.diag([1.0, -1.0, 1.0]), eigenvalue)
    assert F.shape == (3, 2 if eigenvalue == 1 else 1)
