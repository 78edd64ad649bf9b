"""The desk maps compute each cosine, sine and half-angle factor once, and
build their generators trusted; every output equals the oracle that computes
each afresh and goes through the public constructors, bit for bit.

``dp_exp_full`` reuses sin(s/2) of its frame for the half-angle factor,
``dp_log_full`` reuses phi and sin(phi) of the principal pairs (0.5 s is phi
exactly), and ``dp_log_full`` and ``dp_log0`` build their ``DpGenerator``
from the signature they hold. The inputs are one value and stacks of
leading shape (5,) and (2, 3), with B = 0, |B|_2 from 1e-300 to 1e-8,
generic B, and |B|_2 = pi - 4e-6, whose largest principal angle,
pi/2 - 2e-6, lies just outside the cut-locus tolerance.

The translation ceiling of ``_sure`` reads the 2-norm its caller holds, and
tests each entry only where a norm is past half the ceiling.
"""

import math

import numpy as np
import pytest
from oracles import dp_exp_full_oracle, dp_log0_oracle, dp_log_full_oracle

from cartanbundle import (
    CartanMotion,
    DimensionMismatchError,
    DpElement,
    DpGenerator,
    Motion,
    Signature,
    Tolerances,
    dp_exp,
    dp_exp_full,
    dp_log0,
    dp_log_full,
    tau,
)
from cartanbundle import bundle as bn
from cartanbundle import grassmann as gr
from cartanbundle.sampling import make_rng, sample_dp_elements

SHAPES = [(4, 2), (8, 3), (5, 2), (2, 1), (6, 5)]
LEADS = [(), (5,), (2, 3)]
CASES = ["zero", "tiny", "generic", "cut"]


def _elements(n, p, lead, case):
    """A d_p element, or a stack of them, of the given case."""
    count = math.prod(lead)
    B, v = sample_dp_elements(make_rng(1000 * n + p, count), p, n - p, count, math.pi - 0.1)
    top = np.linalg.norm(B, 2, axis=(-2, -1))[:, None, None]
    if case == "zero":
        B = 0.0 * B
    elif case == "tiny":
        B = B / top * np.logspace(-300, -8, count)[:, None, None]
    elif case == "cut":
        B = B / top * (math.pi - 4e-6)  # the largest principal angle is pi/2 - 2e-6
    B, v = B.reshape(lead + B.shape[1:]), v.reshape(lead + v.shape[1:])
    return DpElement(DpGenerator(p, n - p, B), v)


def _same(a, b):
    assert a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


def _same_generator(gen, public):
    """The trusted generator has the public one's fields, in its order, with the same values and flags."""
    assert list(vars(gen)) == list(vars(public))
    assert (gen.p, gen.q, gen._sig) == (public.p, public.q, public._sig)
    assert (type(gen.p), type(gen.q)) == (type(public.p), type(public.q))
    _same(gen.B, public.B)
    assert gen.B.flags.writeable == public.B.flags.writeable


@pytest.mark.parametrize("case", CASES)
@pytest.mark.parametrize("lead", LEADS, ids=str)
@pytest.mark.parametrize("n, p", SHAPES, ids=str)
def test_desk_maps_equal_their_oracles_bit_for_bit(n, p, lead, case):
    xi = _elements(n, p, lead, case)
    s = dp_exp_full(xi)
    for a, b in zip((s.motion.R, s.motion.X, s._frame), dp_exp_full_oracle(xi), strict=True):
        _same(a, b)
    back, want = dp_log_full(s), dp_log_full_oracle(s)
    _same(back.v, want.v)
    _same_generator(back.gen, want.gen)
    R = dp_exp(xi.gen)
    _same_generator(dp_log0(R), dp_log0_oracle(R))


def test_the_trusted_generator_keeps_the_signature_it_is_given():
    """dp_log_full keeps the motion's own Signature, equal to the one the public constructor builds."""
    s = dp_exp_full(_elements(4, 2, (), "generic"))
    assert dp_log_full(s).gen._sig is s.sig


def _motion_with_translation(top):
    """(g, sig) at (4, 2) with A = I, so that tau(g) has Y = 2 P X, X's first two entries doubled."""
    X = np.zeros(top.shape[:-1] + (4,))
    X[..., :2] = top
    return Motion(np.broadcast_to(np.eye(4), X.shape[:-1] + (4, 4)).copy(), X), Signature(2, 2)


@pytest.mark.parametrize("lead", [(), (3,)], ids=str)
def test_a_translation_past_half_the_ceiling_is_tested_entry_by_entry(monkeypatch, lead):
    """|Y|_2 = 0.85e150, past half the 1e150 ceiling, with every entry 0.6e150: ``_sure`` gets the norm,
    tests the entries and trusts the motion, which equals the public constructor's and keeps the
    closed-form frame."""
    sizes, checked = [], []

    def recorded(tol, rot, fib=None, X=None, size=None, _real=gr._sure):
        sizes.append(size)
        return _real(tol, rot, fib, X, size)

    def counted(*args, _real=bn._cartan_motion):
        checked.append(1)
        return _real(*args)

    monkeypatch.setattr(bn, "_sure", recorded)
    monkeypatch.setattr(bn, "_cartan_motion", counted)
    g, sig = _motion_with_translation(np.full(lead + (2,), 0.3e150))
    t = tau(g, sig)
    assert np.all(np.asarray(sizes[-1]) > 0.5 * gr._MAX_ABS) and not checked
    public = CartanMotion(t.motion, sig)
    _same(t.motion.R, public.motion.R)
    _same(t.motion.X, public.motion.X)
    _same(t._frame, np.ascontiguousarray(g.R[..., :2]))


def test_sure_skips_the_entries_only_below_half_the_ceiling():
    """The norm the caller gives decides the route: at or below half the ceiling no entry is read, so an
    inconsistent norm shows it; past half, or NaN, each entry is tested as the public check tests it."""
    tol, X = Tolerances(), np.array([[1.0, 2e150], [1.0, 2.0]])
    assert gr._sure(tol, 0.0, 0.0, X, np.array([0.5e150, 0.5e150])) is True  # one answer for the stack
    assert gr._sure(tol, 0.0, 0.0, X, np.array([0.6e150, 1.0])).tolist() == [False, True]
    assert gr._sure(tol, 0.0, 0.0, X[1], 0.5e150) is True
    assert not gr._sure(tol, 0.0, 0.0, X[0], math.nan)
    assert gr._sure(tol, 0.0, 0.0, X[1], math.inf)


@pytest.mark.parametrize("lead", [(), (3,)], ids=str)
def test_an_entry_past_the_ceiling_still_raises_with_its_context(lead):
    """Y's first entry reaches 1.2e150: the motion goes to the public check, which raises as before."""
    top = np.full(lead + (2,), 1e149)
    top[(0,) * len(lead) + (0,)] = 0.6e150
    g, sig = _motion_with_translation(top)
    with pytest.raises(DimensionMismatchError, match="translation has an entry that is not finite or exceeds 1e") as info:
        tau(g, sig)
    assert info.value.context == ({"index": 0} if lead else {}) | {"max_abs": 1.2e150}
