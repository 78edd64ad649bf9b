import math

import numpy as np
import pytest

from cartanbundle import DimensionMismatchError, GeometryError, cartan_embed0
from cartanbundle.sampling import (
    make_rng,
    sample_bundle_point,
    sample_cartan_motion,
    sample_motion,
    sample_plane,
    sample_screw,
)
from cartanbundle.serialize import (
    bundle_point_from_json,
    bundle_point_to_json,
    cartan_motion_from_json,
    cartan_motion_to_json,
    cartan_rotation_from_json,
    cartan_rotation_to_json,
    dumps,
    mat_from_json,
    mat_to_json,
    motion_from_json,
    motion_to_json,
    plane_from_json,
    plane_to_json,
    screw_from_json,
    screw_to_json,
    vec_from_json,
)


@pytest.fixture
def rng():
    return make_rng(11, 5)


def test_matrix_roundtrip(rng):
    M = rng.standard_normal((3, 4))
    obj = mat_to_json(M)
    assert obj["rows"] == 3 and obj["cols"] == 4 and len(obj["data"]) == 12
    assert np.array_equal(mat_from_json(obj), M)


def test_matrix_row_major_layout():
    obj = mat_to_json(np.array([[1.0, 2.0], [3.0, 4.0]]))
    assert obj["data"] == [1.0, 2.0, 3.0, 4.0]


@pytest.mark.parametrize("shape", [(2, 2, 2), (3,), ()])
def test_only_a_2d_array_is_written_as_a_matrix(shape):
    # rows and cols describe a 2-D array: a (2, 2, 2) stack's 8 numbers do not fit a 2 x 2 matrix
    with pytest.raises(DimensionMismatchError):
        mat_to_json(np.zeros(shape))


@pytest.mark.parametrize(
    "obj",
    [
        {"rows": 2, "cols": 2, "data": [1, 2, 3]},
        {"rows": 0, "cols": 1, "data": []},
        {"rows": 1, "cols": 1, "data": [float("nan")]},
        {"cols": 1, "data": [1.0]},
    ],
)
def test_malformed_matrix_rejected(obj):
    with pytest.raises(GeometryError):
        mat_from_json(obj)


@pytest.mark.parametrize(
    "rows, cols",
    [(2.7, 2), (2.0, 2), ("2", True), (True, 1), (2, "2"), (None, 2), (-1, 2)],
    ids=["float", "integral-float", "string-and-bool", "bool", "string", "null", "negative"],
)
def test_matrix_dimensions_must_be_integers(rows, cols):
    # int() used to read 2.7 as 2 and "2", true as 2, 1
    with pytest.raises(DimensionMismatchError):
        mat_from_json({"rows": rows, "cols": cols, "data": [1.0, 0.0, 0.0, 1.0]})


NOT_NUMBER_LISTS = {
    "string": ["a", 1],  # a raw ValueError before
    "nested": [[1, 2]],  # a raw ValueError from the reshape before
    "scalar": 5,  # a raw TypeError before
    "bool": [True, 1],  # read as [1, 1] before
    "null": [None, 1],
    "object": {"0": 1, "1": 2},
    "string-of-digits": "12",
    "int-past-the-float-range": [10**400, 1],  # a raw OverflowError before
}


@pytest.mark.parametrize("data", NOT_NUMBER_LISTS.values(), ids=NOT_NUMBER_LISTS.keys())
def test_matrix_data_must_be_a_flat_list_of_numbers(data):
    with pytest.raises(DimensionMismatchError):
        mat_from_json({"rows": 1, "cols": 2, "data": data})


@pytest.mark.parametrize("data", NOT_NUMBER_LISTS.values(), ids=NOT_NUMBER_LISTS.keys())
def test_vector_must_be_a_flat_list_of_numbers(data):
    with pytest.raises(DimensionMismatchError):
        vec_from_json(data, 2)


def test_missing_matrix_data_is_a_dimension_mismatch():
    with pytest.raises(DimensionMismatchError):
        mat_from_json({"rows": 1, "cols": 1})


def test_ints_and_floats_are_read_as_floats():
    M = mat_from_json({"rows": 1, "cols": 3, "data": [1, -2.5, -(10**149)]})
    assert M.dtype == float and M.tolist() == [[1.0, -2.5, -1e149]]
    assert vec_from_json([0, 1.5], 2).tolist() == [0.0, 1.5]


@pytest.mark.parametrize("fiber", [[0, True, 0, 0], [0, "0", 0, 0], 0])
def test_bundle_point_fiber_must_be_numbers(rng, fiber):
    obj = bundle_point_to_json(sample_bundle_point(rng, 4, 2))
    obj["fiber"] = fiber
    with pytest.raises(DimensionMismatchError):
        bundle_point_from_json(obj)


@pytest.mark.parametrize("key, value", [("n", 4.0), ("p", "2"), ("p", True)])
def test_plane_dimensions_must_be_integers(rng, key, value):
    obj = plane_to_json(sample_plane(rng, 4, 2))
    obj[key] = value
    with pytest.raises(DimensionMismatchError):
        plane_from_json(obj)


@pytest.mark.parametrize("key, value", [("p", 2.0), ("q", "2"), ("q", False)])
def test_signature_dimensions_must_be_integers(rng, key, value):
    obj = cartan_motion_to_json(sample_cartan_motion(rng, 4, 2))
    obj[key] = value
    with pytest.raises(DimensionMismatchError):
        cartan_motion_from_json(obj)


def test_motion_roundtrip(rng):
    g = sample_motion(rng, 4)
    g2 = motion_from_json(motion_to_json(g))
    assert np.array_equal(g2.R, g.R) and np.array_equal(g2.X, g.X)


def test_screw_roundtrip(rng):
    xi = sample_screw(rng, 3)
    xi2 = screw_from_json(screw_to_json(xi))
    assert np.array_equal(xi2.omega, xi.omega) and np.array_equal(xi2.v, xi.v)


def test_plane_roundtrip_recomputes_projector(rng):
    pl = sample_plane(rng, 5, 2)
    pl2 = plane_from_json(plane_to_json(pl))
    assert np.allclose(pl2.projector, pl.projector, atol=1e-12)


def test_plane_rejects_bad_frame():
    obj = {"n": 2, "p": 1, "frame": {"rows": 2, "cols": 1, "data": [2.0, 0.0]}}
    with pytest.raises(GeometryError):
        plane_from_json(obj)


def test_plane_rejects_shape_mismatch(rng):
    obj = plane_to_json(sample_plane(rng, 4, 2))
    obj["p"] = 3
    with pytest.raises(DimensionMismatchError):
        plane_from_json(obj)


def test_bundle_point_roundtrip(rng):
    b = sample_bundle_point(rng, 4, 2)
    b2 = bundle_point_from_json(bundle_point_to_json(b))
    assert np.allclose(b2.plane.projector, b.plane.projector, atol=1e-12)
    assert np.array_equal(b2.fiber, b.fiber)


def test_bundle_point_validates_fiber(rng):
    obj = bundle_point_to_json(sample_bundle_point(rng, 4, 2))
    obj["fiber"] = [10.0, 10.0, 10.0, 10.0]
    with pytest.raises(GeometryError):
        bundle_point_from_json(obj)


def test_cartan_motion_roundtrip(rng):
    s = sample_cartan_motion(rng, 4, 2)
    obj = cartan_motion_to_json(s)
    assert obj["p"] == 2 and obj["q"] == 2
    s2 = cartan_motion_from_json(obj)
    assert np.allclose(s2.motion.homogeneous(), s.motion.homogeneous())


def test_cartan_motion_validates_membership(rng):
    g = sample_motion(rng, 4)
    obj = motion_to_json(g)
    obj["p"], obj["q"] = 2, 2
    with pytest.raises(GeometryError):
        cartan_motion_from_json(obj)


def test_cartan_rotation_roundtrip(rng):
    cr = cartan_embed0(sample_plane(rng, 4, 2))
    obj = cartan_rotation_to_json(cr)
    assert (obj["p"], obj["q"]) == (2, 2)
    cr2 = cartan_rotation_from_json(obj)
    assert np.array_equal(cr2.mat, cr.mat) and cr2.sig == cr.sig


def test_cartan_rotation_validates_membership(rng):
    obj = {"R": mat_to_json(sample_motion(rng, 4).R), "p": 2, "q": 2}
    with pytest.raises(GeometryError):
        cartan_rotation_from_json(obj)


@pytest.mark.parametrize("key, value", [("p", 2.0), ("q", "2"), ("q", False), ("p", None), ("q", 0)])
def test_cartan_rotation_signature_must_be_integers(rng, key, value):
    obj = cartan_rotation_to_json(cartan_embed0(sample_plane(rng, 4, 2)))
    obj[key] = value
    with pytest.raises(DimensionMismatchError):
        cartan_rotation_from_json(obj)


def test_dumps_is_canonical():
    assert dumps({"b": 1, "a": [1.5]}) == '{"a":[1.5],"b":1}'


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf], ids=["nan", "inf", "-inf"])
def test_dumps_writes_non_finite_floats_as_null(bad):
    assert dumps({"x": bad}) == '{"x":null}'
    assert dumps({"a": [1.5, bad, (bad, 2)], "b": {"c": np.float64(bad)}}) == (
        '{"a":[1.5,null,[null,2]],"b":{"c":null}}'
    )
