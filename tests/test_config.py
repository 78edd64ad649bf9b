import dataclasses
import math
from fractions import Fraction

import numpy as np
import pytest

from cartanbundle import (
    Motion,
    Signature,
    coordinate_plane,
    grassmann,
    in_Q,
    in_Q0,
    is_fixed_point,
    liegroup,
    plane_equal,
)
from cartanbundle.config import Tolerances, default_tolerances


def test_environment_does_not_scale_the_defaults(monkeypatch):
    # Tolerances come only from a Tolerances value; no variable rescales them.
    monkeypatch.setenv("CARTAN_BUNDLE_TOL_SCALE", "2")
    assert default_tolerances() == Tolerances()
    assert default_tolerances() is default_tolerances()


BAD_VALUES = [math.nan, math.inf, -math.inf, 0.0, -1.0, -0.0]


@pytest.mark.parametrize("value", BAD_VALUES, ids=repr)
@pytest.mark.parametrize("name", [f.name for f in dataclasses.fields(Tolerances)])
def test_every_way_to_build_a_tolerance_rejects_a_bad_value(name, value):
    # residual > NaN is never true, so a NaN bound passed every check it held
    with pytest.raises(ValueError, match=name):
        Tolerances(**{name: value})
    with pytest.raises(ValueError, match=name):
        dataclasses.replace(default_tolerances(), **{name: value})


def test_an_unknown_tolerance_name_is_rejected():
    # the CLI's --tol.eig is an unknown flag to argparse; in the library,
    # no constructor takes the name
    with pytest.raises(TypeError, match="eig"):
        Tolerances(eig=1e-7)
    with pytest.raises(TypeError, match="eig"):
        dataclasses.replace(Tolerances(), eig=1e-7)


def test_rank_is_not_a_tolerance():
    # the rank cutoff of orthonormalize is the constant matcore._RANK_TOL
    assert [f.name for f in dataclasses.fields(Tolerances)] == ["orth", "invol", "branch", "plane", "fiber"]
    with pytest.raises(TypeError, match="rank"):
        Tolerances(rank=1e-9)
    with pytest.raises(TypeError, match="rank"):
        dataclasses.replace(default_tolerances(), rank=1e-9)


def test_the_singular_cutoff_is_not_a_tolerance():
    # y_omega_solve cuts off the half-angle factor and dp_log0 the principal
    # sines at fixed constants; no factor on the principal branch of se_log
    # is below 2/pi, so se_log has no cutoff at all
    assert liegroup._FACTOR_TOL == grassmann._SINE_TOL == 1e-9
    with pytest.raises(TypeError, match="sing"):
        Tolerances(sing=1e-9)
    with pytest.raises(TypeError, match="sing"):
        dataclasses.replace(default_tolerances(), sing=1e-9)


def test_finite_positive_values_are_kept():
    tol = dataclasses.replace(Tolerances(), orth=1e-300, branch=1e300)
    assert (tol.orth, tol.branch) == (1e-300, 1e300)


def test_each_tolerance_is_kept_as_a_python_float():
    # a NumPy float field made in_Q0, in_Q and plane_equal answer numpy.bool for one operand
    tol = Tolerances(orth=np.float64(1e-9), invol=np.float64(1e-8), plane=np.float32(1e-8), fiber=np.int64(1),
                     branch=1)
    for f in dataclasses.fields(tol):
        assert type(getattr(tol, f.name)) is float, f.name
    assert (tol.plane, tol.fiber, tol.branch) == (float(np.float32(1e-8)), 1.0, 1.0)
    sig, plane = Signature(2, 2), coordinate_plane(4, 2)
    identity = Motion(np.eye(4), np.zeros(4))
    for answer in (in_Q0(np.eye(4), sig, tol), in_Q(identity, sig, tol), is_fixed_point(identity, sig, tol),
                   plane_equal(plane, plane, tol)):
        assert type(answer) is bool and answer


NOT_REAL = [True, np.True_, np.array(1e-8), np.array([1e-8]), "1e-8", 1j, np.complex128(1e-8), Fraction(1, 10**8)]


@pytest.mark.parametrize("value", NOT_REAL, ids=repr)
@pytest.mark.parametrize("name", [f.name for f in dataclasses.fields(Tolerances)])
def test_a_tolerance_must_be_an_int_or_a_float(name, value):
    # Tolerances(orth=True) and the 0-d and 1-element arrays were kept as given,
    # and a string or a complex number raised a raw TypeError
    with pytest.raises(ValueError, match=name):
        Tolerances(**{name: value})
    with pytest.raises(ValueError, match=name):
        dataclasses.replace(default_tolerances(), **{name: value})
