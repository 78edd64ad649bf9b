import math

import numpy as np
import pytest

from cartanbundle import (
    CartanMotion,
    DimensionMismatchError,
    Motion,
    Signature,
    bundle_point,
    in_Q,
    in_Q0,
    is_fixed_point,
    plane_from_frame,
    tau,
)
from cartanbundle.sampling import (
    make_rng,
    sample_bundle_point,
    sample_bundle_points,
    sample_cartan_motion,
    sample_dp_element,
    sample_dp_elements,
    sample_dp_generator,
    sample_dp_generators,
    sample_fixed_point,
    sample_fixed_points,
    sample_frames,
    sample_motion,
    sample_motions,
    sample_plane,
    sample_rotation,
    sample_rotations,
    sample_screw,
    sample_screws,
    sample_skew,
    sample_skew_bounded,
    sample_skews,
    sample_skews_bounded,
    sample_unit_direction,
    sample_unit_directions,
)


def test_seed_determinism():
    a = sample_rotation(make_rng(42, 0), 5)
    b = sample_rotation(make_rng(42, 0), 5)
    assert np.array_equal(a, b)


def test_streams_are_independent():
    a = sample_rotation(make_rng(42, 0), 5)
    b = sample_rotation(make_rng(42, 1), 5)
    assert not np.allclose(a, b)


def test_rotation_validity():
    rng = make_rng(1, 0)
    for _ in range(20):
        R = sample_rotation(rng, 6)
        assert np.allclose(R.T @ R, np.eye(6), atol=1e-12)
        assert np.isclose(np.linalg.det(R), 1.0)


def test_skew_validity():
    rng = make_rng(2, 0)
    W = sample_skew(rng, 5)
    assert np.allclose(W, -W.T)


def test_skew_bounded_spectrum():
    rng = make_rng(3, 0)
    for _ in range(20):
        W = sample_skew_bounded(rng, 6, 1.5)
        assert np.linalg.norm(W, 2) <= 1.5 + 1e-12


def test_plane_validity():
    rng = make_rng(4, 0)
    pl = sample_plane(rng, 5, 2)
    P = pl.projector
    assert np.allclose(P @ P, P, atol=1e-12)
    assert np.isclose(np.trace(P), 2.0)


def test_unit_direction():
    rng = make_rng(5, 0)
    U = sample_unit_direction(rng, 4)
    assert np.isclose(np.linalg.norm(U), 1.0)
    assert U[0] == 0.0


def test_dp_generator_bound():
    rng = make_rng(6, 0)
    gen = sample_dp_generator(rng, 2, 3, bound=2.0)
    assert np.linalg.norm(gen.B, 2) <= 2.0 + 1e-12


def test_bundle_point_fiber_in_plane():
    rng = make_rng(7, 0)
    b = sample_bundle_point(rng, 5, 2)
    assert np.linalg.norm(b.plane.projector @ b.fiber - b.fiber) <= 1e-12


def test_cartan_motion_membership():
    rng = make_rng(8, 0)
    sig = Signature(2, 2)
    s = sample_cartan_motion(rng, 4, 2)
    assert in_Q(s.motion, sig)
    assert in_Q0(s.motion.R, sig)


def test_fixed_point_sampler():
    rng = make_rng(9, 0)
    sig = Signature(2, 3)
    for _ in range(10):
        g = sample_fixed_point(rng, sig)
        assert is_fixed_point(g, sig)


def test_motion_sampler_dimension():
    rng = make_rng(10, 0)
    g = sample_motion(rng, 3)
    assert g.n == 3 and g.X.shape == (3,)


@pytest.mark.parametrize(
    "draw",
    [
        lambda rng: sample_rotation(rng, 0),
        lambda rng: sample_rotation(rng, -1),
        lambda rng: sample_skew(rng, 0),
        lambda rng: sample_skew_bounded(rng, 0, 1.0),
        lambda rng: sample_screw(rng, 0),
        lambda rng: sample_motion(rng, 0),
        lambda rng: sample_unit_direction(rng, 1),
        lambda rng: sample_unit_direction(rng, 0),
        lambda rng: sample_dp_generator(rng, 0, 3),
        lambda rng: sample_dp_element(rng, 2, 0),
        lambda rng: sample_plane(rng, 3, 3),
    ],
)
def test_too_small_dimension_raises(draw):
    with pytest.raises(DimensionMismatchError):
        draw(make_rng(12, 0))


def test_grid_of_samples():
    R, X = sample_motions(make_rng(13, 0), 4, (3, 2))
    assert R.shape == (3, 2, 4, 4) and X.shape == (3, 2, 4)
    assert np.allclose(np.linalg.det(R), 1.0, atol=1e-12)


def test_single_sampler_is_the_stack_of_one():
    a = sample_motion(make_rng(14, 0), 5)
    R, X = sample_motions(make_rng(14, 0), 5, 1)
    assert np.array_equal(a.R, R[0]) and np.array_equal(a.X, X[0])


SHAPES = [(2, 1), (5, 2), (6, 5), (32, 5)]


@pytest.mark.parametrize("count", [1, 50])
@pytest.mark.parametrize("n, p", SHAPES, ids=lambda v: str(v))
class TestStackedSamplers:
    def rng(self, n, p, count):
        return make_rng(1000 * n + p, count)

    def test_rotations_in_SO_n(self, n, p, count):
        R = sample_rotations(self.rng(n, p, count), n, count)
        assert R.shape == (count, n, n)
        assert np.abs(R.swapaxes(-1, -2) @ R - np.eye(n)).max() <= 1e-12
        assert np.abs(np.linalg.det(R) - 1.0).max() <= 1e-12

    def test_motions(self, n, p, count):
        R, X = sample_motions(self.rng(n, p, count), n, count)
        assert R.shape == (count, n, n) and X.shape == (count, n)
        assert np.abs(R.swapaxes(-1, -2) @ R - np.eye(n)).max() <= 1e-12
        assert np.abs(np.linalg.det(R) - 1.0).max() <= 1e-12

    def test_skews(self, n, p, count):
        W = sample_skews(self.rng(n, p, count), n, count)
        assert W.shape == (count, n, n)
        assert np.array_equal(W, -W.swapaxes(-1, -2))

    def test_bounded_skews_within_their_bound(self, n, p, count):
        W = sample_skews_bounded(self.rng(n, p, count), n, count, 1.5)
        assert np.array_equal(W, -W.swapaxes(-1, -2))
        assert np.linalg.norm(W, 2, axis=(-2, -1)).max() <= 1.5 * (1 + 1e-12)

    def test_screws_within_their_bound(self, n, p, count):
        omega, v = sample_screws(self.rng(n, p, count), n, count)
        assert omega.shape == (count, n, n) and v.shape == (count, n)
        total = np.sqrt(np.linalg.norm(omega, axis=(-2, -1)) ** 2 + np.linalg.norm(v, axis=-1) ** 2)
        assert total.max() <= 4.0 * (1 + 1e-12)

    def test_generators_within_their_bound(self, n, p, count):
        bound = math.pi - 0.1
        B = sample_dp_generators(self.rng(n, p, count), p, n - p, count, bound=bound)
        assert B.shape == (count, n - p, p)
        assert np.linalg.norm(B, 2, axis=(-2, -1)).max() <= bound * (1 + 1e-12)
        B, v = sample_dp_elements(self.rng(n, p, count), p, n - p, count, bound=bound)
        assert v.shape == (count, p)
        assert np.linalg.norm(B, 2, axis=(-2, -1)).max() <= bound * (1 + 1e-12)

    def test_frames_orthonormal(self, n, p, count):
        F = sample_frames(self.rng(n, p, count), n, p, count)
        assert F.shape == (count, n, p)
        assert np.abs(F.swapaxes(-1, -2) @ F - np.eye(p)).max() <= 1e-12

    def test_fibers_in_their_plane(self, n, p, count):
        F, Y = sample_bundle_points(self.rng(n, p, count), n, p, count)
        assert np.abs(F.swapaxes(-1, -2) @ F - np.eye(p)).max() <= 1e-12
        for f, y in zip(F, Y):
            P = f @ f.T
            assert np.linalg.norm(P @ y - y) <= 1e-12 * (1 + np.linalg.norm(y))
            bundle_point(plane_from_frame(f), y)

    def test_unit_directions(self, n, p, count):
        U = sample_unit_directions(self.rng(n, p, count), n, count)
        assert U.shape == (count, n) and not U[:, 0].any()
        assert np.abs(np.linalg.norm(U, axis=-1) - 1.0).max() <= 1e-12

    def test_fixed_points_are_fixed(self, n, p, count):
        sig = Signature(p, n - p)
        for R, X in zip(*sample_fixed_points(self.rng(n, p, count), sig, count)):
            assert is_fixed_point(Motion(R, X), sig)

    def test_cartan_motions_pass_the_public_constructor(self, n, p, count):
        sig = Signature(p, n - p)
        for R, X in zip(*sample_motions(self.rng(n, p, count), n, count)):
            CartanMotion(tau(Motion(R, X), sig).motion, sig)


def test_every_integer_seed_keys_its_own_stream():
    # the key went through a float: seeds -1 to -1024 all gave seed 0's stream,
    # with a RuntimeWarning, and a NumPy int64 seed raised OverflowError
    first = {seed: make_rng(seed).standard_normal() for seed in (0, -1, -2, -1024, 2**64 - 1, 2**63 + 1)}
    assert len(set(first.values())) == 5 and first[-1] == first[2**64 - 1]
    assert make_rng(np.int64(-1)).standard_normal() == first[-1]
    assert make_rng(np.uint64(5), 3).standard_normal() == make_rng(5, 3).standard_normal()


@pytest.mark.parametrize("seed", [1.5, "3", None, True])
def test_a_seed_that_is_no_integer_raises(seed):
    # the integer rule of matcore._is_int, as for the stream: a bool is no seed
    with pytest.raises(DimensionMismatchError):
        make_rng(seed)


@pytest.mark.parametrize("stream", [1.5, True, -1, 2**64, "1", None])
def test_a_stream_that_is_no_integer_in_range_raises(stream):
    # 1.5 and True gave stream 1's generator; -1 and 2^64 raised NumPy's OverflowError
    with pytest.raises(DimensionMismatchError):
        make_rng(0, stream)


def test_every_stream_in_range_keys_its_own_generator():
    draws = {stream: make_rng(0, stream).standard_normal() for stream in (0, 1, 2**63, 2**64 - 1)}
    assert len(set(draws.values())) == 4
    assert make_rng(0, np.uint64(2**64 - 1)).standard_normal() == draws[2**64 - 1]
    assert make_rng(0, np.int8(1)).standard_normal() == draws[1]


@pytest.mark.parametrize("draw", [sample_rotations, sample_skews, sample_unit_directions])
def test_an_empty_count_draws_one_value_as_the_stack_of_one(draw):
    """count=() gives one value, bit for bit index 0 of the stack of one."""
    one, stack = draw(make_rng(15, 0), 5, ()), draw(make_rng(15, 0), 5, 1)
    assert one.shape == stack.shape[1:] and one.tobytes() == stack[0].tobytes()
