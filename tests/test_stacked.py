"""The stacked kernels: a stack of k operands gives, element by element, the
k single calls bit for bit, and a stack with one bad element raises the
error class of that element's single call, with its ``index`` in the
context.

The stacks mix the hard inputs of each kernel: small angles, below 1e-4,
and angles just above it, rotations with angles near pi
(the pairing path of the log, with splits m = 0, 2 and 4 and exact -1
eigenspaces in one stack), and principal angles below 1e-2 (the sine
branch of the principal pairs).
"""

import ast
import copy
import math
import pickle
import warnings
from pathlib import Path

import numpy as np
import pytest

from cartanbundle import bundle as bn
from cartanbundle import grassmann as gr
from cartanbundle import liegroup as lg
from cartanbundle import matcore as mc
from cartanbundle import projective as pj
from cartanbundle import serialize as sz
from cartanbundle import verify as vf
from cartanbundle import (
    CutLocusError,
    DegenerateSpanError,
    DimensionMismatchError,
    GeometryError,
    IllConditionedSpectrumError,
    Motion,
    NotInCartanModelError,
    NotOrthogonalSymmetryError,
    Signature,
    SingularMapError,
    Tolerances,
    skew_wedge,
)
from cartanbundle.sampling import (
    make_rng,
    sample_bundle_points,
    sample_dp_generators,
    sample_fixed_points,
    sample_motions,
    sample_rotations,
    sample_unit_directions,
)

SHAPES = [(4, 2), (8, 3), (5, 2), (2, 1), (6, 5), (32, 5)]
TOL = Tolerances()
# angles of the turning planes: small angles, below 1e-4, and just above, generic, and near pi
ANGLES = [0.0, 3e-5, 9.9e-5, 1.01e-4, 2e-4, 0.7, 2.0, math.pi - 1e-3, math.pi - 1e-9]


def _bits(x) -> bytes:
    return np.ascontiguousarray(np.asarray(x, dtype=float)).tobytes()


def _same(stacked: tuple, single, k: int) -> None:
    """Each array of ``stacked`` at index i is bit for bit the array of ``single(i)``."""
    for i in range(k):
        one = single(i)
        assert len(one) == len(stacked)
        for j, (a, b) in enumerate(zip(stacked, one)):
            assert _bits(a[i]) == _bits(b), (i, j)


def _fields(value) -> tuple:
    """The arrays of a ``Motion`` (R, X) or a ``Screw`` (omega, v)."""
    return tuple(vars(value).values())


def _rotation_parts(r) -> tuple:
    """(R, frame) of a ``CartanRotation``."""
    return r.mat, r._frame


def _skews(rng, n: int, k: int) -> np.ndarray:
    """k skew matrices whose turning angles are drawn from ``ANGLES``, in random planes."""
    W = np.zeros((k, n, n))
    for i, Q in enumerate(sample_rotations(rng, n, k)):
        for b in range(n // 2):
            t = ANGLES[rng.integers(len(ANGLES))]
            W[i] += t * (np.outer(Q[:, 2 * b + 1], Q[:, 2 * b]) - np.outer(Q[:, 2 * b], Q[:, 2 * b + 1]))
    return W


def _generators(rng, p: int, q: int, k: int) -> np.ndarray:
    """k blocks B whose singular values mix zeros, angles below 1e-2 and generic angles."""
    B = sample_dp_generators(rng, p, q, k, bound=math.pi - 0.1)
    U, s, Vt = np.linalg.svd(B, full_matrices=False)
    small = rng.choice([0.0, 1e-9, 1e-5, 3e-3, 1.0], size=s.shape)
    s = np.where(small < 1.0, small, s)
    return (U * s[..., None, :]) @ Vt


# the turning angles of each rotation of ``_tail_rotations``, one per plane; pi
# turns a plane by exactly diag(-1, -1), an exact -1 eigenspace. Above 3 pi / 4
# a plane falls below the split of ``_rotation_log``, so the splits m are
# 0, 2, 2, 4, 4, 4, 2, 4, 2, and the pairing tail's skew block has a kernel
# (fewer pairs than m / 2) at elements 2, 4, 5 and 8.
TAIL_TURNS = [
    (0.7, 0.3), (math.pi - 1e-3, 0.7), (math.pi, 0.7), (2.9, math.pi - 1e-9), (math.pi, math.pi - 1e-3),
    (math.pi, math.pi), (0.3, 2.9), (math.pi - 1e-9, math.pi - 1e-9), (0.7, math.pi),
]


def _tail_rotations(n: int) -> np.ndarray:
    """One rotation per entry of ``TAIL_TURNS``, in the planes of a random frame; any further plane turns by 0.7."""
    R = np.zeros((len(TAIL_TURNS), n, n))
    for i, (Q, turns) in enumerate(zip(sample_rotations(make_rng(40, n), n, len(R)), TAIL_TURNS)):
        B = np.eye(n)
        for b, t in enumerate(turns + (0.7,) * (n // 2 - 2)):
            c, s = (-1.0, 0.0) if t == math.pi else (math.cos(t), math.sin(t))
            B[2 * b : 2 * b + 2, 2 * b : 2 * b + 2] = [[c, -s], [s, c]]
        R[i] = Q @ B @ Q.T
    return R


@pytest.fixture(params=SHAPES, ids=[f"{n}-{p}" for n, p in SHAPES])
def shape(request):
    return request.param


K = 9


class TestMatcore:
    def test_validators(self, shape):
        n, _ = shape
        rng = make_rng(1, n)
        R, X = sample_motions(rng, n, K)
        _same((mc.check_finite_matrix(R, (n, n), batch=(K,)),), lambda i: (mc.check_finite_matrix(R[i], (n, n)),), K)
        _same((mc.check_finite_vector(X, n, batch=(K,)),), lambda i: (mc.check_finite_vector(X[i], n),), K)
        W = _skews(rng, n, K)
        _same((mc.check_skew(W),), lambda i: (mc.check_skew(W[i]),), K)
        _same(mc._checked_rotation(R, TOL, n), lambda i: mc._checked_rotation(R[i], TOL, n), K)

    def test_norms(self, shape):
        n, _ = shape
        x = make_rng(2, n).standard_normal((K, 3, n, n))
        norms = mc._norm(x, 2)
        assert norms.shape == (K, 3)
        for i in np.ndindex(K, 3):
            assert _bits(norms[i]) == _bits(np.linalg.norm(x[i]))

    @pytest.mark.parametrize("n", [8, 5])
    def test_norms_of_strided_blocks(self, n):
        # the (n - 1, 1) blocks R[:, 1:, :1] flattened to strided rows, whose
        # vecdot summed 869 of 4000 norms at n = 8 in another order than np.linalg.norm
        R = sample_rotations(make_rng(5, 0), n, 4000)
        for blocks, core in ((R[:, 1:, :1], 2), (R[:, :1, 1:], 2), (R[:, 1:, 2:], 2), (R[::2, :, 0], 1)):
            norms = mc._norm(blocks, core)
            assert _bits(norms) == _bits([np.linalg.norm(b) for b in blocks])

    def test_symmetric_involution(self, shape):
        n, p = shape
        R, _ = sample_motions(make_rng(3, n), n, K)
        S = R @ Signature(p, n - p).matrix @ R.mT
        holds, i, defect, invol = mc._symmetric_involution(S, TOL)
        assert holds.all() and i is None and defect is None
        _same((invol,), lambda i: (mc._symmetric_involution(S[i], TOL)[3],), K)

    def test_rotation_log(self, shape):
        n, _ = shape
        R = lg.se_exp(lg.Screw(_skews(make_rng(4, n), n, K), np.zeros((K, n)))).R
        _same(mc._rotation_log(R), lambda i: mc._rotation_log(R[i]), K)

    @pytest.mark.parametrize("n", [4, 5, 7])
    def test_rotation_log_pairing_tail(self, n):
        R = _tail_rotations(n)
        k = len(R)
        S = 0.5 * (R + R.mT)
        assert (np.linalg.eigvalsh(S) < -0.75).sum(axis=-1).tolist() == [0, 2, 2, 4, 4, 4, 2, 4, 2]
        _same(mc._rotation_log(R), lambda i: mc._rotation_log(R[i]), k)
        # the skew blocks of the tail below the split: kernels, and counts that differ within a split
        V = np.linalg.eigh(S)[1][..., :4]
        W = V.mT @ (0.5 * (R - R.mT)) @ V
        Q, s = mc._skew_pairs(W)
        assert (s > 0).sum(axis=-1)[[3, 4, 5]].tolist() == [2, 1, 0]
        _same((Q, s), lambda i: mc._skew_pairs(W[i]), k)

    def test_skew_pairs_of_mixed_counts(self, shape):
        n, _ = shape
        W = _skews(make_rng(41, n), n, K)
        W[0] = 0.0  # no pairs at all
        Q, s = mc._skew_pairs(W)
        assert s.shape == (K, n // 2) and len(set((s > 0).sum(axis=-1).tolist())) > 1
        _same((Q, s), lambda i: mc._skew_pairs(W[i]), K)

    @pytest.mark.parametrize("n", [4, 5, 7])
    def test_canonical_forms(self, n):
        # each form of a stack: its Q, its angles padded with zeros, its blocks and its rebuilt matrix
        R, W = _tail_rotations(n), _skews(make_rng(42, n), n, len(TAIL_TURNS))
        for M, (Q, angles), single, rotation in (
            (R, mc._rotation_form(mc.check_special_orthogonal(R, TOL)), mc.canonical_rotation_form, True),
            (W, mc._forms(*mc._skew_pairs(mc.check_skew(W)), rotation=False),
             mc.skew_canonical_form, False),
        ):
            D = mc._blocks(angles, n, rotation)
            rebuilt = Q @ D @ Q.mT
            for i, form in enumerate(map(single, M)):
                k = len(form.angles)
                assert _bits(Q[i]) == _bits(form.Q)
                assert angles[i, :k].tolist() == list(form.angles) and not angles[i, k:].any()
                blocks, matrix = (form.rotation_blocks(), form.rotation_matrix()) if rotation else (
                    form.skew_blocks(), form.skew_matrix())
                assert _bits(D[i]) == _bits(blocks) and _bits(rebuilt[i]) == _bits(matrix)

    def test_rotation_blocks_hold_the_math_cos_and_sin(self):
        # the blocks take np.cos and np.sin of the whole array; this fails where those are not libm's bits
        edges = [0.0, 1e-9, math.pi / 2, math.pi - 1e-7, math.pi]
        angles = np.concatenate([edges, make_rng(45, 0).uniform(0.0, math.pi, 10_000)]).reshape(-1, 5)
        D = mc._blocks(angles, 11, rotation=True)
        j = 2 * np.arange(5)
        cos = [[math.cos(t) for t in row] for row in angles.tolist()]
        sin = [[math.sin(t) for t in row] for row in angles.tolist()]
        assert _bits(D[:, j, j]) == _bits(cos) and _bits(D[:, j + 1, j + 1]) == _bits(cos)
        assert _bits(D[:, j + 1, j]) == _bits(sin) and _bits(D[:, j, j + 1]) == _bits(0.0 - np.array(sin))

    @pytest.mark.parametrize("eigenvalue", [1, -1])
    def test_eigenspace(self, shape, eigenvalue):
        # the signatures vary along the stack, so the eigenspaces differ in dimension
        n, _ = shape
        A = sample_rotations(make_rng(43, n), n, K)
        S = np.stack([a @ Signature(1 + i % (n - 1), n - 1 - i % (n - 1)).matrix @ a.T for i, a in enumerate(A)])
        V, keep = mc._eigenspace(S, eigenvalue, TOL)
        for i in range(K):
            assert _bits(V[i][:, keep[i]]) == _bits(mc.eigenspace_of_symmetric_involution(S[i], eigenvalue))

    @pytest.mark.parametrize("n", [2, 5, 11])
    def test_wedges(self, n):
        # every pair i < j, and the stack of pairs shuffled and repeated
        i, j = np.triu_indices(n, 1)
        at = make_rng(44, n).permutation(np.repeat(np.arange(len(i)), 2))
        i, j = i[at] + 1, j[at] + 1
        _same((mc._wedge(i, j, n),), lambda k: (mc.skew_wedge(int(i[k]), int(j[k]), n),), len(i))

    @pytest.mark.parametrize("n", [8, 5])
    def test_norms_of_transposed_stacks(self, n):
        # R.mT: np.linalg.norm reads each transposed element in memory order;
        # a row-by-row copy summed 632 of 4000 norms differently at n = 8
        R = sample_rotations(make_rng(5, 0), n, 4000)
        for stack in (R.mT, R[::2].mT, R[:, 1:].mT, R[:, :, 1:].mT):
            assert _bits(mc._norm(stack, 2)) == _bits([np.linalg.norm(r) for r in stack])
        pairs = R.reshape(2000, 2, n, n)
        assert _bits(mc._norm(pairs.mT, 2)) == _bits([[np.linalg.norm(r.T) for r in pair] for pair in pairs])

    def test_frame_completion(self, shape):
        n, p = shape
        F, _ = sample_bundle_points(make_rng(27, n), n, p, K)
        _same((mc._complete_frames(F),), lambda i: (mc.complete_to_special_orthogonal(F[i]),), K)


class TestLiegroup:
    def test_exp_log_solve(self, shape):
        n, _ = shape
        rng = make_rng(5, n)
        W, v = _skews(rng, n, K), rng.standard_normal((K, n))
        _same(lg._spectrum(W), lambda i: lg._spectrum(W[i]), K)
        R, Y = _fields(lg.se_exp(lg.Screw(W, v)))
        _same((R, Y), lambda i: _fields(lg.se_exp(lg.Screw(W[i], v[i]))), K)
        _same((R, Y), lambda i: (lg.so_exp(W[i]), lg.y_omega(W[i], v[i])), K)
        _same((lg.y_omega_solve(W, Y),), lambda i: (lg.y_omega_solve(W[i], Y[i]),), K)
        _same(_fields(lg.se_log(Motion(R, Y), TOL, True)),
              lambda i: _fields(lg.se_log(Motion(R[i], Y[i]), TOL, True)), K)
        _same((lg._factors(W[:, 0]),), lambda i: (lg._factors(W[i, 0]),), K)

    def test_group_law_and_series(self, shape):
        n, _ = shape
        rng = make_rng(28, n)
        R, X = sample_motions(rng, n, (K, 2))
        a, b = Motion(R[:, 0], X[:, 0]), Motion(R[:, 1], X[:, 1])
        prod, inv = lg.se_mul(a, b), lg.se_inv(a)

        def single(i):
            ai, bi = Motion(R[i, 0], X[i, 0]), Motion(R[i, 1], X[i, 1])
            prod_i, inv_i = lg.se_mul(ai, bi), lg.se_inv(ai)
            return prod_i.R, prod_i.X, inv_i.R, inv_i.X

        _same((prod.R, prod.X, inv.R, inv.X), single, K)
        W, v = _skews(rng, n, K), rng.standard_normal((K, n))
        M = lg.Screw(W, v).matrix()
        _same((M, vf.series_exp(M)), lambda i: (lambda Mi: (Mi, vf.series_exp(Mi)))(lg.Screw(W[i], v[i]).matrix()), K)

    def test_log_pairs_the_angles_near_pi(self):
        # a rotation by exactly pi in two planes takes the pairing path
        n = 6
        R, X = sample_motions(make_rng(6, 0), n, K)
        D = np.diag([-1.0, -1.0, -1.0, -1.0, 1.0, 1.0])
        R[::2] = R[::2] @ D @ R[::2].mT
        assert (mc._rotation_log(R)[2][::2, :4] == math.pi).all()
        _same(_fields(lg.se_log(Motion(R, X), TOL, True)),
              lambda i: _fields(lg.se_log(Motion(R[i], X[i]), TOL, True)), K)


class TestGrassmann:
    def test_dp_exp_and_log0(self, shape):
        n, p = shape
        sig = Signature(p, n - p)
        B = _generators(make_rng(7, n), p, n - p, K)
        _same(gr._generator_svd(B), lambda i: gr._generator_svd(B[i]), K)
        V, s, U = gr._generator_svd(B)
        c, sn = np.cos(s), np.sin(s)
        _same((gr._cs_rotation(V, s, U), gr._cs_frame(V, c, sn, U)),
              lambda i: (gr._cs_rotation(V[i], s[i], U[i]), gr._cs_frame(V[i], c[i], sn[i], U[i])), K)
        R, F = _rotation_parts(gr.dp_exp(gr.DpGenerator(p, n - p, B), TOL))
        _same((R, F), lambda i: _rotation_parts(gr.dp_exp(gr.DpGenerator(p, n - p, B[i]), TOL)), K)
        _same((R, F), lambda i: (gr.dp_exp(gr.DpGenerator(p, n - p, B[i])).mat,
                                 gr.dp_exp(gr.DpGenerator(p, n - p, B[i]))._frame), K)
        _same(gr._principal_pairs(F, TOL), lambda i: gr._principal_pairs(F[i], TOL), K)
        _same(gr._cartan_rotation(R, sig, TOL), lambda i: gr._cartan_rotation(R[i], sig, TOL), K)
        _same(gr._cartan_frame(R, sig, TOL), lambda i: gr._cartan_frame(R[i], sig, TOL), K)

    def test_sine_branch_runs_on_the_small_angles(self, shape):
        n, p = shape
        B = _generators(make_rng(8, n), p, n - p, K)
        F = gr.dp_exp(gr.DpGenerator(p, n - p, B), TOL)._frame
        top, bottom = F[:, :p], F[:, p:]
        assert (gr._angle_pairs(top, bottom)[1] < 1e-2).any()
        _same(gr._angle_pairs(top, bottom), lambda i: gr._angle_pairs(top[i], bottom[i]), K)

    def test_planes_embed_and_twisted_act0(self, shape):
        n, p = shape
        sig = Signature(p, n - p)
        rng = make_rng(17, n)
        F, _ = sample_bundle_points(rng, n, p, K)
        A = sample_rotations(rng, n, K)
        F = mc.check_frame(F, TOL)
        _same((F,), lambda i: (mc.check_frame(F[i], TOL),), K)
        P = mc.projector(F)
        planes = [gr.plane_from_frame(F[i], TOL) for i in range(K)]
        _same((F, P), lambda i: (planes[i].frame, planes[i].projector), K)
        plane = gr.plane_from_frame(F, TOL)
        R, Fe = _rotation_parts(gr.cartan_embed0(plane))
        _same((R, Fe), lambda i: (gr.cartan_embed0(planes[i]).mat, gr.cartan_embed0(planes[i])._frame), K)
        acted = gr.twisted_act0(A, R, sig, TOL)
        _same((acted,), lambda i: (gr.twisted_act0(A[i], R[i], sig, TOL),), K)
        _same((gr.rotate_plane(A, plane).frame,), lambda i: (gr.rotate_plane(A[i], planes[i]).frame,), K)

    def test_sigma0_in_Q0_and_blocks(self, shape):
        n, p = shape
        sig = Signature(p, n - p)
        rng = make_rng(29, n)
        R = sample_rotations(rng, n, K)
        _same((gr.sigma0(R, sig),), lambda i: (gr.sigma0(R[i], sig),), K)
        B = _generators(rng, p, n - p, K)
        _same((gr.DpGenerator(p, n - p, B).B,), lambda i: (gr.DpGenerator(p, n - p, B[i]).B,), K)
        # the twisted actions on exp(B) lie in Q0; a generic rotation does not, except at n = 2
        acted = gr.twisted_act0(R, gr.dp_exp(gr.DpGenerator(p, n - p, B), TOL).mat, sig, TOL)
        mixed = np.where((np.arange(K) % 2 == 0)[:, None, None], acted, R)
        inside = gr.in_Q0(mixed, sig, TOL)
        assert list(inside) == [gr.in_Q0(mixed[i], sig) for i in range(K)]
        assert inside[::2].all() and (n == 2 or not inside[1::2].any())

    def test_embed_where_some_elements_are_not_sure(self):
        # under orth 1e-12, the bound of a frame off by 1e-13 is not sure of its check
        n, p = 4, 2
        F, _ = sample_bundle_points(make_rng(18, 0), n, p, K)
        F[1::2] *= 1 + 1e-13
        F.flags.writeable = False
        tol = Tolerances(orth=1e-12)
        R, Fe = _rotation_parts(gr.cartan_embed0(gr._plane(F, tol)))
        _same((R, Fe), lambda i: _rotation_parts(gr.cartan_embed0(gr._plane(F[i], tol))), K)
        # the plane's frame where sure, the checked frame elsewhere
        assert [np.array_equal(Fe[i], F[i]) for i in range(K)] == [i % 2 == 0 for i in range(K)]


def _parts(s) -> tuple:
    """(R, X, frame) of a ``CartanMotion``."""
    return s.motion.R, s.motion.X, s._frame


def _checked(R, X, sig) -> tuple:
    """(R, X, frame) after the ``CartanMotion`` check of (R, X), or of each of a stack."""
    return _parts(bn.CartanMotion(Motion(R, X), sig, TOL))


class TestBundle:
    def test_tau(self, shape):
        n, p = shape
        sig = Signature(p, n - p)
        R, X = sample_motions(make_rng(9, n), n, K)
        X = 1e3 * X
        out = _parts(bn.tau(Motion(R, X), sig, TOL))
        _same(out, lambda i: _parts(bn.tau(Motion(R[i], X[i]), sig, TOL)), K)
        _same(out, lambda i: _parts(bn.tau(Motion(R[i], X[i]), sig)), K)
        _same(_checked(out[0], out[1], sig), lambda i: _checked(out[0][i], out[1][i], sig), K)

    def test_tau_where_some_elements_are_not_sure(self):
        # under orth 1e-12, tau's bound (about 3e-12 for the scaled rotations,
        # 2e-14 for the others) is sure of the unscaled elements only
        n, p = 4, 2
        sig = Signature(p, n - p)
        R, X = sample_motions(make_rng(10, 0), n, K)
        R[1::2] *= 1 + 1e-13
        tol = Tolerances(orth=1e-12)
        out = _parts(bn.tau(Motion(R, X), sig, tol))
        _same(out, lambda i: _parts(bn.tau(Motion(R[i], X[i]), sig, tol)), K)
        # the closed-form frame where sure, the checked frame elsewhere
        closed = [np.array_equal(out[2][i], R[i][:, :p]) for i in range(K)]
        assert closed == [i % 2 == 0 for i in range(K)]

    def test_dp_exp_full_and_log_full(self, shape):
        n, p = shape
        sig = Signature(p, n - p)
        rng = make_rng(11, n)
        B, v = _generators(rng, p, n - p, K), rng.standard_normal((K, p))
        s = bn.dp_exp_full(bn.DpElement(gr.DpGenerator(p, n - p, B), v), TOL)
        singles = [bn.dp_exp_full(bn.DpElement(gr.DpGenerator(p, n - p, B[i]), v[i]), TOL) for i in range(K)]
        _same(_parts(s), lambda i: _parts(singles[i]), K)
        back = bn.dp_log_full(s)
        _same((back.gen.B, back.v), lambda i: (lambda e: (e.gen.B, e.v))(bn.dp_log_full(singles[i])), K)
        public = [bn.dp_log_full(bn.dp_exp_full(bn.DpElement(gr.DpGenerator(p, n - p, B[i]), v[i]))) for i in range(K)]
        _same((back.gen.B, back.v), lambda i: (public[i].gen.B, public[i].v), K)

    def test_points_rho_inv_and_actions(self, shape):
        n, p = shape
        sig = Signature(p, n - p)
        rng = make_rng(19, n)
        F, Y = sample_bundle_points(rng, n, p, (K, 2))
        R, X = sample_motions(rng, n, K)
        F, Y = mc.check_frame(F, TOL), 10.0 * Y
        Y = bn.bundle_point(gr.plane_from_frame(F, TOL), Y).fiber
        points = [[bn.bundle_point(gr.plane_from_frame(F[i, k], TOL), Y[i, k]) for k in (0, 1)] for i in range(K)]
        _same((Y,), lambda i: (np.stack([b.fiber for b in points[i]]),), K)
        src, dst = (bn.bundle_point(gr.plane_from_frame(F[:, k], TOL), Y[:, k]) for k in (0, 1))
        Rs, _, Fs = _parts(bn.rho_inv(src))
        _same((Rs, Fs), lambda i: (bn.rho_inv(points[i][0]).motion.R, bn.rho_inv(points[i][0])._frame), K)
        moved = (lambda b: (b.plane.frame, b.plane.projector, b.fiber))(bn.bundle_act(Motion(R, X), src, sig))
        _same(moved, lambda i: (lambda b: (b.plane.frame, b.plane.projector, b.fiber))(
            bn.bundle_act(Motion(R[i], X[i]), points[i][0], sig)), K)
        A, T = _fields(bn.find_transporter(src, dst))
        _same((A, T), lambda i: (lambda a: (a.R, a.X))(bn.find_transporter(*points[i])), K)
        s = bn.tau(Motion(R, X), sig, TOL).motion
        a = Motion(A, T)
        acted = bn.twisted_act(a, s, sig, TOL)
        _same(_fields(acted), lambda i: (lambda g: (g.R, g.X))(
            bn.twisted_act(Motion(A[i], T[i]), Motion(s.R[i], s.X[i]), sig)), K)
        inside = bn.in_Q(acted, sig, TOL)
        assert list(inside) == [bn.in_Q(Motion(acted.R[i], acted.X[i]), sig) for i in range(K)]
        assert inside.all() and not bn.in_Q(Motion(R, X), sig, TOL).any()

    def test_sigma_fixed_points_and_double_projection(self, shape):
        n, p = shape
        sig = Signature(p, n - p)
        rng = make_rng(30, n)
        R, X = sample_fixed_points(rng, sig, K)
        Rh, Xh = sample_motions(rng, n, K)
        R[1::2], X[1::2] = Rh[1::2], Xh[1::2]  # generic motions, not fixed

        def single(i):
            s = bn.sigma(Motion(R[i], X[i]), sig)
            return s.R, s.X

        _same(_fields(bn.sigma(Motion(R, X), sig)), single, K)
        fixed = bn.is_fixed_point(Motion(R, X), sig, TOL)
        assert list(fixed) == [bn.is_fixed_point(Motion(R[i], X[i]), sig) for i in range(K)]
        assert list(fixed) == [i % 2 == 0 for i in range(K)]
        _same((bn.double_projection(Rh, Xh, sig, TOL),), lambda i: (bn.double_projection(Rh[i], Xh[i], sig),), K)


def _projector_of_rank(V: np.ndarray) -> np.ndarray:
    """The SVD projector of one matrix: U[:, :r] U[:, :r]^T for its r singular values above 1e-12 max(1, largest)."""
    U, s, _ = np.linalg.svd(V, full_matrices=False)
    r = int(np.sum(s > 1e-12 * max(1.0, s[0])))
    return U[:, :r] @ U[:, :r].T


def test_the_svd_projector_keeps_the_rank_of_each_matrix(shape):
    # ranks p, p - 1 and p - 2 (at least 0) in one stack; each product keeps its own number of columns
    n, p = shape
    V = sample_rotations(make_rng(31, n), n, K)[:, :, :p].copy()
    V[1::3, :, -1:] = 0.0
    V[2::3, :, -2:] = 0.0
    _same((vf.svd_projector(V),), lambda i: (_projector_of_rank(V[i]),), K)
    _same((vf.svd_projector(V),), lambda i: (vf.svd_projector(V[i]),), K)


class TestProjective:
    def test_unit_directions_and_line_blocks(self, shape):
        n, _ = shape
        rng = make_rng(20, n)
        U, theta = sample_unit_directions(rng, n, K), rng.uniform(-7.0, 7.0, K)
        _same((pj.unit_direction(U),), lambda i: (pj.unit_direction(U[i]),), K)
        _same((pj._line_block(theta, U),), lambda i: (pj._line_block(float(theta[i]), U[i]),), K)


# The stack contract: a map that returns an array, a motion, a screw or a bool
# reads its stack shape from its first operand, and each other operand must
# have that leading shape. Each map is drawn at (5, 2) on a stack or a grid.
N, P = 5, 2
SIG = Signature(P, N - P)
GRIDS = [(K,), (2, 3)]


def _draw_screws(rng, shape):
    """Skews with small angles, below 1e-4, and angles near pi, and vectors."""
    return _skews(rng, N, math.prod(shape)).reshape(shape + (N, N)), rng.standard_normal(shape + (N,))


def _draw_motions(rng, shape):
    """Motions: one in three lies in S_p (a ``tau`` output), one in three is fixed by sigma, the rest are generic."""
    k = math.prod(shape)
    R, X = sample_motions(rng, N, k)
    t = bn.tau(Motion(R, X), SIG, TOL).motion
    Rt, Xt = t.R, t.X
    Rf, Xf = sample_fixed_points(rng, SIG, k)
    kind = (np.arange(k) % 3)[:, None]
    R = np.where(kind[..., None] == 0, Rt, np.where(kind[..., None] == 1, Rf, R))
    X = np.where(kind == 0, Xt, np.where(kind == 1, Xf, X))
    return R.reshape(shape + (N, N)), X.reshape(shape + (N,))


def _draw_motion_pairs(rng, shape):
    return _draw_motions(rng, shape) + _draw_motions(rng, shape)


def _nonskew(W):
    return W + np.eye(N)


def _scaled(R):
    return 1.01 * R


def _nan(x):
    return np.full_like(x, math.nan)


# name -> (draw(rng, shape) -> operands, call(*operands), type of a single call's output,
# (operand, edit, error): one element's operand edited, and its single call's error class)
STACK_MAPS = {
    "se_exp": (_draw_screws, lambda W, v: lg.se_exp(lg.Screw(W, v)), Motion,
               (0, _nonskew, IllConditionedSpectrumError)),
    "y_omega": (_draw_screws, lg.y_omega, np.ndarray, (1, _nan, DimensionMismatchError)),
    "so_exp": (lambda rng, shape: _draw_screws(rng, shape)[:1], lg.so_exp, np.ndarray,
               (0, _nonskew, IllConditionedSpectrumError)),
    "y_omega_solve": (_draw_screws, lg.y_omega_solve, np.ndarray,
                      (0, lambda W: 2 * math.pi * skew_wedge(1, 2, N), SingularMapError)),
    # the tau outputs and the fixed points turn planes by pi, the +pi resolution
    "se_log": (_draw_motions, lambda R, X: lg.se_log(Motion(R, X), TOL, True), lg.Screw,
               (0, _scaled, IllConditionedSpectrumError)),
    "so_log": (lambda rng, shape: _draw_motions(rng, shape)[:1], lambda R: lg.so_log(R, TOL, True), np.ndarray,
               (0, _scaled, IllConditionedSpectrumError)),
    "sigma0": (lambda rng, shape: _draw_motions(rng, shape)[:1], lambda R: gr.sigma0(R, SIG), np.ndarray,
               (0, _nan, DimensionMismatchError)),
    "in_Q0": (lambda rng, shape: _draw_motions(rng, shape)[:1], lambda R: gr.in_Q0(R, SIG), bool,
              (0, _nan, DimensionMismatchError)),
    "twisted_act0": (lambda rng, shape: _draw_motion_pairs(rng, shape)[::2], lambda A, R: gr.twisted_act0(A, R, SIG),
                     np.ndarray, (0, _scaled, IllConditionedSpectrumError)),
    "sigma": (_draw_motions, lambda R, X: bn.sigma(Motion(R, X), SIG), Motion, (1, _nan, DimensionMismatchError)),
    "in_Q": (_draw_motions, lambda R, X: bn.in_Q(Motion(R, X), SIG), bool, (0, _nan, DimensionMismatchError)),
    "is_fixed_point": (_draw_motions, lambda R, X: bn.is_fixed_point(Motion(R, X), SIG), bool,
                       (1, _nan, DimensionMismatchError)),
    "twisted_act": (_draw_motion_pairs, lambda A, X, R, Y: bn.twisted_act(Motion(A, X), Motion(R, Y), SIG), Motion,
                    (0, _scaled, IllConditionedSpectrumError)),
    "double_projection": (_draw_motions, lambda A, X: bn.double_projection(A, X, SIG), np.ndarray,
                          (0, _scaled, IllConditionedSpectrumError)),
    "unit_direction": (lambda rng, shape: (sample_unit_directions(rng, N, shape),), pj.unit_direction, np.ndarray,
                       (0, lambda U: 2.0 * U, DimensionMismatchError)),
    "check_skew": (lambda rng, shape: _draw_screws(rng, shape)[:1], mc.check_skew, np.ndarray,
                   (0, _nonskew, IllConditionedSpectrumError)),
}


def _outputs(out) -> tuple:
    """The arrays of a map's output: the fields of a motion or a screw, else the output itself."""
    return _fields(out) if isinstance(out, (Motion, lg.Screw)) else (out,)


@pytest.mark.parametrize("shape", GRIDS, ids=["stack", "grid"])
@pytest.mark.parametrize("name", sorted(STACK_MAPS))
def test_a_stack_gives_its_single_calls_bit_for_bit(name, shape):
    draw, call, single_type, _ = STACK_MAPS[name]
    operands = draw(make_rng(50, len(shape)), shape)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        stacked = call(*operands)
        assert type(stacked) is (np.ndarray if single_type is bool else single_type)
        for i in np.ndindex(shape):
            single = call(*(x[i] for x in operands))
            assert type(single) is single_type
            assert [_bits(a[i]) for a in _outputs(stacked)] == [_bits(b) for b in _outputs(single)], i
    if single_type is bool:  # the draw mixes both answers
        assert 0 < np.count_nonzero(stacked) < stacked.size


@pytest.mark.parametrize("shape", GRIDS, ids=["stack", "grid"])
@pytest.mark.parametrize("name", sorted(STACK_MAPS))
def test_a_bad_element_raises_its_single_calls_error_at_its_index(name, shape):
    draw, call, _, (k, edit, error) = STACK_MAPS[name]
    operands = list(draw(make_rng(51, len(shape)), shape))
    i = tuple(s - 1 for s in shape)  # the last element
    operands[k] = _with(operands[k], i, edit(operands[k][i]))
    index = i[0] if len(i) == 1 else i
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        _raises_at(lambda: call(*operands), lambda: call(*(x[i] for x in operands)), error, index)


def test_a_bracket_of_stacks_gives_its_single_brackets(shape):
    # the vector part (omega1 v2 - omega2 v1) is one matvec per element
    n, _ = shape
    rng = make_rng(52, n)
    for grid in GRIDS:
        k = math.prod(grid)
        W1, W2 = (_skews(rng, n, k).reshape(grid + (n, n)) for _ in range(2))
        v1, v2 = rng.standard_normal(grid + (n,)), rng.standard_normal(grid + (n,))
        stacked = lg.se_bracket(lg.Screw(W1, v1), lg.Screw(W2, v2))
        for i in np.ndindex(grid):
            single = lg.se_bracket(lg.Screw(W1[i], v1[i]), lg.Screw(W2[i], v2[i]))
            assert [_bits(a[i]) for a in _fields(stacked)] == [_bits(b) for b in _fields(single)], i


# A map that returns one record (a canonical form, an eigenspace frame) takes one operand.
ONE_OPERAND_MAPS = {
    "skew_canonical_form": lambda R, X: mc.skew_canonical_form(R - R.mT),
    "canonical_rotation_form": lambda R, X: mc.canonical_rotation_form(R),
    "eigenspace_of_symmetric_involution": lambda R, X: mc.eigenspace_of_symmetric_involution(
        R @ SIG.matrix @ R.mT, -1),
}


@pytest.mark.parametrize("name", sorted(ONE_OPERAND_MAPS))
def test_a_map_that_returns_one_record_takes_no_stack(name):
    rng = make_rng(53, 0)
    R, X = sample_motions(rng, N, 3)
    ONE_OPERAND_MAPS[name](R[0], X[0])  # one operand passes
    with pytest.raises(DimensionMismatchError):
        ONE_OPERAND_MAPS[name](R, X)


# One bad element in a stack raises what its single call raises, with its index.


def _raises_at(stacked, single, error, index):
    with pytest.raises(error) as one:
        single()
    assert "index" not in one.value.context
    with pytest.raises(error) as info:
        stacked()
    assert info.value.context["index"] == index
    # the same context besides the index (repr, so that a NaN equals itself)
    assert repr({k: v for k, v in info.value.context.items() if k != "index"}) == repr(one.value.context)


def test_a_nan_entry_raises_at_its_index():
    n = 4
    rng = make_rng(12, 0)
    W, v = _skews(rng, n, K), rng.standard_normal((K, n))
    entry, W[5, 0, 1] = W[5, 0, 1], math.nan
    _raises_at(lambda: lg.se_exp(lg.Screw(W, v)), lambda: lg.se_exp(lg.Screw(W[5], v[5])), DimensionMismatchError, 5)
    W[5, 0, 1], v[3, 2] = entry, math.nan
    _raises_at(lambda: lg.se_exp(lg.Screw(W, v)), lambda: lg.y_omega(W[3], v[3]), DimensionMismatchError, 3)


def test_a_non_orthogonal_rotation_raises_at_its_index():
    n, p = 5, 2
    sig = Signature(p, n - p)
    R, X = sample_motions(make_rng(13, 0), n, K)
    R[6] *= 1.01
    _raises_at(lambda: lg.se_log(Motion(R, X), TOL), lambda: lg.se_log(Motion(R[6], X[6])),
               IllConditionedSpectrumError, 6)
    _raises_at(lambda: bn.tau(Motion(R, X), sig, TOL), lambda: bn.tau(Motion(R[6], X[6]), sig),
               IllConditionedSpectrumError, 6)


def test_a_cut_locus_frame_raises_at_its_index():
    n, p = 4, 2
    sig = Signature(p, n - p)
    rng = make_rng(14, 0)
    B, v = sample_dp_generators(rng, p, n - p, K, bound=2.0), rng.standard_normal((K, p))
    B[4] = [[math.pi, 0.0], [0.0, 0.5]]  # principal angle pi/2
    s = bn.dp_exp_full(bn.DpElement(gr.DpGenerator(p, n - p, B), v), TOL)
    single = bn.dp_exp_full(bn.DpElement(gr.DpGenerator(p, n - p, B[4]), v[4]))
    _raises_at(lambda: bn.dp_log_full(s), lambda: bn.dp_log_full(single), CutLocusError, 4)
    _raises_at(lambda: gr._principal_pairs(s._frame, TOL),
               lambda: gr.dp_log0(gr.dp_exp(gr.DpGenerator(p, n - p, B[4]))), CutLocusError, 4)


def test_an_element_off_the_model_raises_at_its_index():
    n, p = 4, 2
    sig = Signature(p, n - p)
    R, X, _ = _parts(bn.tau(Motion(*sample_motions(make_rng(15, 0), n, K)), sig, TOL))
    X = X.copy()
    X[2] += 1e-3 * np.linalg.norm(X[2])
    _raises_at(lambda: bn.CartanMotion(Motion(R, X), sig, TOL),
               lambda: bn.CartanMotion(Motion(R[2], X[2]), sig), NotInCartanModelError, 2)


def _with(stack, i, bad):
    """A copy of ``stack`` with element i set to ``bad``."""
    stack = stack.copy()
    stack[i] = bad
    return stack


def test_a_nan_fiber_raises_at_its_index():
    n, p = 4, 2
    F, Y = sample_bundle_points(make_rng(21, 0), n, p, K)
    Y = _with(Y, 5, math.nan)
    _raises_at(lambda: bn.bundle_point(gr.plane_from_frame(F), Y),
               lambda: bn.bundle_point(gr.plane_from_frame(F[5]), Y[5]), DimensionMismatchError, 5)


def test_a_non_orthonormal_frame_raises_at_its_index():
    n, p = 5, 2
    F, _ = sample_bundle_points(make_rng(22, 0), n, p, K)
    F = _with(F, 3, 1.01 * F[3])
    _raises_at(lambda: gr.plane_from_frame(F, TOL), lambda: gr.plane_from_frame(F[3]), DegenerateSpanError, 3)
    # a rotation moves it to a frame that is not orthonormal either
    A = sample_rotations(make_rng(23, 0), n, K)
    points = bn.bundle_point(gr._plane(F, TOL), np.zeros((K, n)))
    _raises_at(lambda: bn.bundle_act(Motion(A, np.zeros((K, n))), points, Signature(p, n - p)),
               lambda: gr.rotate_plane(A[3], gr._plane(F[3], TOL)), DegenerateSpanError, 3)


def test_a_fiber_off_its_plane_raises_at_its_index():
    n, p = 4, 2
    F, Y = sample_bundle_points(make_rng(24, 0), n, p, K)
    P = mc.projector(F)
    off = (np.eye(n) - P[7]) @ make_rng(25, 0).standard_normal(n)
    Y = _with(Y, 7, Y[7] + 1e-3 * off)
    _raises_at(lambda: bn.bundle_point(gr.plane_from_frame(F), Y),
               lambda: bn.bundle_point(gr.plane_from_frame(F[7]), Y[7]), NotInCartanModelError, 7)


def test_a_twisted_action_by_twice_the_identity_raises_at_its_index():
    n, p = 4, 2
    sig = Signature(p, n - p)
    R, X = sample_motions(make_rng(26, 0), n, K)
    A = _with(R, 4, 2.0 * np.eye(n))
    _raises_at(lambda: gr.twisted_act0(A, R, sig, TOL), lambda: gr.twisted_act0(A[4], R[4], sig),
               IllConditionedSpectrumError, 4)
    _raises_at(lambda: bn.twisted_act(Motion(A, X), Motion(R, X), sig, TOL),
               lambda: bn.twisted_act(Motion(A[4], X[4]), Motion(R[4], X[4]), sig), IllConditionedSpectrumError, 4)


def test_a_nan_motion_raises_at_its_index():
    n, p = 4, 2
    sig = Signature(p, n - p)
    R, X = sample_fixed_points(make_rng(32, 0), sig, K)
    X = _with(X, 5, math.nan)
    _raises_at(lambda: bn.is_fixed_point(Motion(R, X), sig, TOL),
               lambda: bn.is_fixed_point(Motion(R[5], X[5]), sig), DimensionMismatchError, 5)
    _raises_at(lambda: bn.sigma(Motion(R, X), sig), lambda: bn.sigma(Motion(R[5], X[5]), sig),
               DimensionMismatchError, 5)


def test_a_double_projection_by_a_non_rotation_raises_at_its_index():
    n, p = 5, 2
    sig = Signature(p, n - p)
    A, X = sample_motions(make_rng(33, 0), n, K)
    A = _with(A, 3, 1.01 * A[3])
    _raises_at(lambda: bn.double_projection(A, X, sig, TOL), lambda: bn.double_projection(A[3], X[3], sig),
               IllConditionedSpectrumError, 3)


def test_an_odd_count_of_angles_near_pi_raises_at_its_index():
    # a reflection in one direction: (R + R^T)/2 has one eigenvalue -1
    R = _tail_rotations(5)
    Q = R[4]
    R = _with(R, 4, Q @ np.diag([-1.0, 1.0, 1.0, 1.0, 1.0]) @ Q.T)
    _raises_at(lambda: mc._rotation_log(R), lambda: mc._rotation_log(R[4]), IllConditionedSpectrumError, 4)


def test_a_bad_canonical_form_or_eigenspace_input_raises_at_its_index():
    R = _tail_rotations(5)
    _raises_at(lambda: mc._rotation_form(mc.check_special_orthogonal(_with(R, 6, 1.01 * R[6]), TOL)),
               lambda: mc.canonical_rotation_form(1.01 * R[6]), IllConditionedSpectrumError, 6)
    S = R @ Signature(2, 3).matrix @ R.mT
    S = _with(S, 3, R[3])  # a rotation, not an involution
    _raises_at(lambda: mc._eigenspace(S, -1, TOL),
               lambda: mc.eigenspace_of_symmetric_involution(S[3], -1), NotOrthogonalSymmetryError, 3)


def test_a_non_skew_screw_raises_at_its_index_in_the_series_row():
    # the row runs its check once per dimension, so the index is mapped back to the sample's
    cfg = vf.VerifyConfig(n=8, p=3, samples=12, seed=5)
    stream = [name for name, _ in vf.PROPERTIES].index("liegroup.exp_matches_series")
    row = vf.PROPERTIES[stream][1]
    (mixed,) = row.draw(cfg, make_rng(cfg.seed, stream), cfg.samples)
    assert len(mixed.groups) > 1  # not all of one dimension
    i = cfg.samples - 1
    at, (omega, v) = next(group for group in mixed.groups if i in group[0])
    j = int(np.flatnonzero(at == i)[0])
    omega[j] += np.eye(omega.shape[-1])
    edited = vf.Row(row.check, row.bound, lambda cfg, rng, count: (mixed,))
    _raises_at(lambda: edited.errors(cfg, None), lambda: lg.se_exp(lg.Screw(omega[j], v[j])),
               IllConditionedSpectrumError, i)


# the rows whose draws mix dimensions (``_per_dimension``)
MIXED_ROWS = [
    "matcore.canonical_form_reconstruction",
    "liegroup.exp_matches_series",
    "projective.line_bundle_exp",
    "projective.half_angle_line",
]


@pytest.mark.parametrize("name", MIXED_ROWS)
def test_a_mixed_row_checks_one_dimension_per_call(name):
    cfg = vf.VerifyConfig(n=8, p=3, samples=40, seed=5)
    stream = [entry[0] for entry in vf.PROPERTIES].index(name)
    row = vf.PROPERTIES[stream][1]
    mixed, *rest = row.draw(cfg, make_rng(cfg.seed, stream), cfg.samples)
    assert len(mixed) == cfg.samples and len(mixed.groups) > 1
    # the groups split the samples' indices, ascending in dimension and in index
    dims = [stacks[0].shape[-1] for _, stacks in mixed.groups]
    assert dims == sorted(set(dims))
    assert all(np.all(np.diff(at) > 0) for at, _ in mixed.groups)
    assert np.array_equal(np.sort(np.concatenate([at for at, _ in mixed.groups])), np.arange(cfg.samples))
    calls = []

    def recording(cfg, *stacks):
        calls.append(stacks)
        return row.check(cfg, *stacks)

    samples, columns = vf.Row(recording, row.bound, row.draw).errors(cfg, make_rng(cfg.seed, stream))
    assert samples == cfg.samples and all(len(c) == cfg.samples for c in columns)
    # once per dimension, on the stacks the samplers drew and the other stacks' entries at the group's indices
    assert len(calls) == len(mixed.groups)
    for (at, stacks), got in zip(mixed.groups, calls):
        expected = (*stacks, *(s[at] for s in rest))
        assert len(got) == len(expected)
        assert all(isinstance(g, np.ndarray) and np.array_equal(g, e) for g, e in zip(got, expected))
        nn = stacks[0].shape[-1]
        assert all(len(s) == len(at) and set(s.shape[1:]) <= {nn} for s in got)


# The certified stack contract: a stack of certified values is one Plane,
# BundlePoint, CartanRotation, CartanMotion, DpGenerator or DpElement whose
# arrays carry a leading batch shape. Each map and constructor of them
# reads its stack shape from its first operand, and a stack gives its single
# calls bit for bit in every field, ``_frame`` and ``_tol`` too.
Q = N - P


def _plane(F):
    return gr.plane_from_frame(F, TOL)


def _point(F, Y):
    return bn.bundle_point(gr.plane_from_frame(F, TOL), Y)


def _gen(B):
    return gr.DpGenerator(P, Q, B)


def _element(B, v):
    return bn.DpElement(_gen(B), v)


def _draw_frames(rng, shape):
    return sample_bundle_points(rng, N, P, shape)[:1]


def _draw_points(rng, shape):
    F, Y = sample_bundle_points(rng, N, P, shape)
    return F, 10.0 * Y


def _draw_rotations(rng, shape):
    return (sample_rotations(rng, N, shape),)


def _draw_cartan_rotations(rng, shape):
    """Rotations in S_p0: exponentials of generators whose singular values mix zeros, small and generic angles."""
    return (gr.dp_exp(_gen(_draw_generators(rng, shape)[0])).mat,)


def _draw_cartan_motions(rng, shape):
    R, X = sample_motions(rng, N, shape)
    t = bn.tau(Motion(R, 1e3 * X), SIG).motion
    return t.R, t.X


def _draw_generators(rng, shape):
    return (_generators(rng, P, Q, math.prod(shape)).reshape(shape + (Q, P)),)


def _draw_elements(rng, shape):
    return _draw_generators(rng, shape) + (rng.standard_normal(shape + (P,)),)


def _draw_plane_pairs(rng, shape):
    """Frame pairs (F1, F2): the same plane in another frame at every other element, else another plane."""
    F1, F2 = _draw_frames(rng, shape)[0], _draw_frames(rng, shape)[0]
    turn = sample_rotations(rng, P, shape)
    same = (np.arange(math.prod(shape)) % 2 == 0).reshape(shape)[..., None, None]
    return F1, np.where(same, F1 @ turn, F2)


def _draw_lines(rng, shape):
    """(theta, U, lam): angles that mix ``ANGLES`` with generic ones of either sign, unit directions, and lams."""
    theta = np.where(rng.random(shape) < 0.5, rng.choice(ANGLES, size=shape), rng.uniform(-7.0, 7.0, shape))
    return theta, sample_unit_directions(rng, N, shape), rng.standard_normal(shape)


def _cut_locus(B):
    """A generator whose principal angle is pi / 2."""
    return np.array([[math.pi, 0.0], [0.0, 0.5], [0.0, 0.0]])


def _off_model(R):
    """A rotation in the plane of e_1 and e_2, which mixes the -1 block of J: R J is not symmetric."""
    return lg.so_exp(0.5 * skew_wedge(1, 2, N))


# name -> (draw(rng, shape) -> operands, call(*operands),
# (operand, edit, error) of one bad element, or None where no element of an array can fail)
CERTIFIED_MAPS = {
    "plane_from_frame": (_draw_frames, _plane, (0, _scaled, DegenerateSpanError)),
    "Plane": (_draw_frames, gr.Plane, (0, _nan, DimensionMismatchError)),
    "check_frame": (_draw_frames, lambda F: mc.check_frame(F, TOL), (0, _scaled, DegenerateSpanError)),
    "complete_to_special_orthogonal": (_draw_frames, lambda F: mc.complete_to_special_orthogonal(F, TOL),
                                       (0, _scaled, DegenerateSpanError)),
    "check_special_orthogonal": (_draw_rotations, lambda R: mc.check_special_orthogonal(R, TOL),
                                 (0, _scaled, IllConditionedSpectrumError)),
    "bundle_point": (_draw_points, _point, (1, _nan, DimensionMismatchError)),
    "BundlePoint": (_draw_points, lambda F, Y: bn.BundlePoint(gr.Plane(F), Y),
                    (1, lambda Y: Y + 1.0, NotInCartanModelError)),
    "CartanRotation.certify": (_draw_cartan_rotations, lambda R: gr.CartanRotation.certify(R, SIG, TOL),
                               (0, _off_model, NotInCartanModelError)),
    "CartanRotation": (_draw_cartan_rotations, lambda R: gr.CartanRotation(R, SIG),
                       (0, _scaled, IllConditionedSpectrumError)),
    "CartanMotion.certify": (_draw_cartan_motions, lambda R, X: bn.CartanMotion.certify(Motion(R, X), SIG, TOL),
                             (1, lambda X: X + 1.0, NotInCartanModelError)),
    "CartanMotion": (_draw_cartan_motions, lambda R, X: bn.CartanMotion(Motion(R, X), SIG),
                     (0, _scaled, IllConditionedSpectrumError)),
    "DpGenerator": (_draw_generators, _gen, None),
    "DpElement": (_draw_elements, _element, (1, _nan, DimensionMismatchError)),
    "DpElement.screw": (_draw_elements, lambda B, v: _element(B, v).screw(), (1, _nan, DimensionMismatchError)),
    "tau": (_draw_motions, lambda R, X: bn.tau(Motion(R, X), SIG, TOL), (0, _scaled, IllConditionedSpectrumError)),
    "rho": (_draw_cartan_motions, lambda R, X: bn.rho(bn.CartanMotion(Motion(R, X), SIG, TOL)),
            (1, lambda X: X + 1.0, NotInCartanModelError)),
    "rho_inv": (_draw_points, lambda F, Y: bn.rho_inv(_point(F, Y)), (0, _scaled, DegenerateSpanError)),
    "rho0": (_draw_cartan_rotations, lambda R: gr.rho0(gr.CartanRotation(R, SIG, TOL)),
             (0, _off_model, NotInCartanModelError)),
    "cartan_embed0": (_draw_frames, lambda F: gr.cartan_embed0(_plane(F)), (0, _nan, DimensionMismatchError)),
    "rotate_plane": (lambda rng, shape: _draw_rotations(rng, shape) + _draw_frames(rng, shape),
                     lambda A, F: gr.rotate_plane(A, _plane(F)), (0, lambda A: 2.0 * A, DegenerateSpanError)),
    "dp_exp": (_draw_generators, lambda B: gr.dp_exp(_gen(B), TOL), (0, _nan, DimensionMismatchError)),
    "dp_log0": (_draw_generators, lambda B: gr.dp_log0(gr.dp_exp(_gen(B), TOL)), (0, _cut_locus, CutLocusError)),
    "dp_exp_full": (_draw_elements, lambda B, v: bn.dp_exp_full(_element(B, v), TOL),
                    (0, _nan, DimensionMismatchError)),
    "dp_log_full": (_draw_elements, lambda B, v: bn.dp_log_full(bn.dp_exp_full(_element(B, v), TOL)),
                    (0, _cut_locus, CutLocusError)),
    "bundle_act": (lambda rng, shape: sample_motions(rng, N, shape) + _draw_points(rng, shape),
                   lambda R, X, F, Y: bn.bundle_act(Motion(R, X), _point(F, Y), SIG),
                   (0, lambda R: 2.0 * R, DegenerateSpanError)),
    "find_transporter": (lambda rng, shape: _draw_points(rng, shape) + _draw_points(rng, shape),
                         lambda Fs, Ys, Fd, Yd: bn.find_transporter(_point(Fs, Ys), _point(Fd, Yd)),
                         (3, _nan, DimensionMismatchError)),
    "plane_equal": (_draw_plane_pairs, lambda F1, F2: gr.plane_equal(_plane(F1), _plane(F2), TOL),
                    (1, _scaled, DegenerateSpanError)),
    "principal_angles": (_draw_plane_pairs, lambda F1, F2: gr.principal_angles(_plane(F1), _plane(F2)),
                         (0, _nan, DimensionMismatchError)),
    # the line maps read their stack shape from U, their second operand
    "rotation_in_plane": (_draw_lines, lambda theta, U, lam: pj.rotation_in_plane(theta, U),
                          (1, lambda U: 2.0 * U, DimensionMismatchError)),
    "half_angle_line": (_draw_lines, lambda theta, U, lam: pj.half_angle_line(theta, U),
                        (0, _nan, DimensionMismatchError)),
    "line_bundle_exp": (_draw_lines, pj.line_bundle_exp, (2, _nan, DimensionMismatchError)),
}


def _leaves(value) -> list:
    """(path, leaf) for every field of a value, through its nested values: arrays, and the rest as they are."""
    if isinstance(value, (np.ndarray, bool, int, Signature, Tolerances)):
        return [("", value)]
    if isinstance(value, bn.CartanMotion):
        value.motion  # a deferred R is built here, so that it is compared too; its recipe is no field
    fields = sorted((name, field) for name, field in vars(value).items() if name != "_rotation")
    return [(f"{name}.{path}", leaf) for name, field in fields for path, leaf in _leaves(field)]


def _same_leaves(stacked, single, i) -> None:
    """Element i of each array of ``stacked`` is the array of ``single`` bit for bit, of its type and
    writeability; every other field (n, p, sig, ``_tol``) is equal."""
    pairs = list(zip(_leaves(stacked), _leaves(single), strict=True))
    for (path, a), (path_b, b) in pairs:
        assert path == path_b
        if isinstance(a, np.ndarray) and type(b) is not np.ndarray:  # a predicate's bool
            assert type(b) is bool and a[i] == b, (path, i)
        elif isinstance(a, np.ndarray):
            assert _bits(a[i]) == _bits(b) and a.flags.writeable == b.flags.writeable, (path, i)
        else:
            assert type(a) is type(b) and a == b, (path, i)


@pytest.mark.parametrize("shape", GRIDS, ids=["stack", "grid"])
@pytest.mark.parametrize("name", sorted(CERTIFIED_MAPS))
def test_a_certified_stack_gives_its_single_calls_bit_for_bit(name, shape):
    draw, call, _ = CERTIFIED_MAPS[name]
    operands = draw(make_rng(54, len(shape)), shape)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        stacked = call(*operands)
        for i in np.ndindex(shape):
            single = call(*(x[i] for x in operands))
            assert type(single) is (bool if isinstance(stacked, np.ndarray) and stacked.dtype == bool
                                    else type(stacked))
            _same_leaves(stacked, single, i)
    if name == "plane_equal":  # the draw mixes both answers
        assert 0 < np.count_nonzero(stacked) < stacked.size


@pytest.mark.parametrize("shape", GRIDS, ids=["stack", "grid"])
@pytest.mark.parametrize("name", sorted(k for k, v in CERTIFIED_MAPS.items() if v[2]))
def test_a_bad_element_of_a_certified_stack_raises_its_single_calls_error_at_its_index(name, shape):
    draw, call, (k, edit, error) = CERTIFIED_MAPS[name]
    operands = list(draw(make_rng(55, len(shape)), shape))
    i = tuple(s - 1 for s in shape)  # the last element
    operands[k] = _with(operands[k], i, edit(operands[k][i]))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        _raises_at(lambda: call(*operands), lambda: call(*(x[i] for x in operands)), error,
                   i[0] if len(i) == 1 else i)


def _points_of(shape) -> bn.BundlePoint:
    return _point(*_draw_points(make_rng(56, len(shape)), shape))


def _planes_of(shape) -> gr.Plane:
    return _plane(*_draw_frames(make_rng(57, len(shape)), shape))


def _directions_of(shape) -> np.ndarray:
    return sample_unit_directions(make_rng(62, len(shape)), N, shape)


# An operand of another leading shape than the operand the map reads its stack
# shape from: the first, or the direction U of a line map
LEADING_SHAPE_MISMATCHES = {
    "bundle_act-motions-3-point-stack-2": lambda: bn.bundle_act(Motion(*sample_motions(make_rng(58, 0), N, 3)),
                                                                _points_of((2,)), SIG),
    "bundle_act-one-motion-point-stack-2": lambda: bn.bundle_act(Motion(np.eye(N), np.zeros(N)), _points_of((2,)), SIG),
    "find_transporter-stack-3-one": lambda: bn.find_transporter(_points_of((3,)), _points_of(())),
    "find_transporter-one-stack-3": lambda: bn.find_transporter(_points_of(()), _points_of((3,))),
    "plane_equal-stack-3-stack-2": lambda: gr.plane_equal(_planes_of((3,)), _planes_of((2,))),
    "principal_angles-stack-3-one": lambda: gr.principal_angles(_planes_of((3,)), _planes_of(())),
    "rotate_plane-rotations-3-plane-stack-2": lambda: gr.rotate_plane(sample_rotations(make_rng(59, 0), N, 3),
                                                                      _planes_of((2,))),
    "bundle_point-planes-3-one-fiber": lambda: bn.bundle_point(_planes_of((3,)), np.zeros(N)),
    "DpElement-generators-3-one-v": lambda: bn.DpElement(_gen(np.zeros((3, Q, P))), np.zeros(P)),
    "CartanMotion-rotations-3-translations-2": lambda: bn.CartanMotion(
        Motion(np.tile(np.eye(N), (3, 1, 1)), np.zeros((2, N))), SIG),
    "tau-rotations-3-one-translation": lambda: bn.tau(Motion(np.tile(np.eye(N), (3, 1, 1)), np.zeros(N)), SIG),
    "rotation_in_plane-directions-3-thetas-2": lambda: pj.rotation_in_plane(np.zeros(2), _directions_of((3,))),
    "half_angle_line-directions-3-one-theta": lambda: pj.half_angle_line(0.3, _directions_of((3,))),
    "half_angle_line-directions-2x3-thetas-3": lambda: pj.half_angle_line(np.zeros(3), _directions_of((2, 3))),
    "line_bundle_exp-directions-3-lams-2": lambda: pj.line_bundle_exp(np.zeros(3), _directions_of((3,)), np.zeros(2)),
    "line_bundle_exp-one-direction-lams-2": lambda: pj.line_bundle_exp(0.3, _directions_of((1,))[0], np.zeros(2)),
}


@pytest.mark.parametrize("name", sorted(LEADING_SHAPE_MISMATCHES))
def test_a_second_certified_operand_of_another_leading_shape_is_a_dimension_mismatch(name):
    with pytest.raises(DimensionMismatchError):
        LEADING_SHAPE_MISMATCHES[name]()


def _stacked_values() -> dict:
    """One stacked value of each certified class, of leading shape (2, 3)."""
    rng = make_rng(60, 0)
    points = _point(*_draw_points(rng, (2, 3)))
    return {
        "Plane": points.plane,
        "BundlePoint": points,
        "CartanRotation": gr.CartanRotation(_draw_cartan_rotations(rng, (2, 3))[0], SIG, TOL),
        "CartanMotion": bn.CartanMotion(Motion(*_draw_cartan_motions(rng, (2, 3))), SIG, TOL),
        "CartanMotion-rho_inv": bn.rho_inv(points),
        "CartanMotion-dp_exp_full": bn.dp_exp_full(_element(*_draw_elements(rng, (2, 3))), TOL),
    }


def _tampered(name, value):
    """A trusted copy of a stacked value whose element (1, 2) fails its class's check; nothing is checked."""
    def bad(a):
        return _with(a, (1, 2), 1.01 * a[1, 2])

    if name == "Plane":
        return gr._plane(bad(value.frame), TOL)
    if name == "BundlePoint":
        fiber = _with(value.fiber, (1, 2), value.fiber[1, 2] + 1.0)
        return gr._trusted(bn.BundlePoint, TOL, plane=value.plane, fiber=fiber)
    if name == "CartanRotation":
        return gr._trusted(gr.CartanRotation, TOL, mat=bad(value.mat), sig=SIG, _frame=value._frame)
    if name != "CartanMotion":  # deferred, as rho_inv and dp_exp_full leave it: R is built by the copy
        R = bad(value.motion.R)
        return gr._trusted(bn.CartanMotion, TOL, sig=SIG, _frame=value._frame, _X=value._X, _rotation=lambda: R)
    return gr._trusted(bn.CartanMotion, TOL, motion=Motion(bad(value.motion.R), value.motion.X), sig=SIG,
                       _frame=value._frame)


CLONES = {"copy": copy.copy, "pickle": lambda x: pickle.loads(pickle.dumps(x))}


@pytest.mark.parametrize("clone", sorted(CLONES))
@pytest.mark.parametrize("name", ["Plane", "BundlePoint", "CartanRotation", "CartanMotion", "CartanMotion-rho_inv",
                                  "CartanMotion-dp_exp_full"])
def test_a_copy_of_a_certified_stack_runs_its_check_again(name, clone):
    value = _stacked_values()[name]
    twin = CLONES[clone](value)
    assert type(twin) is type(value) and twin is not value
    # a deferred motion keeps a closed-form frame; its copy, the frame of the public check
    expected = value if "-" not in name else bn.CartanMotion.certify(value.motion, SIG, TOL)
    for (path, a), (_, b) in zip(_leaves(twin), _leaves(expected), strict=True):
        assert _bits(a) == _bits(b) if isinstance(a, np.ndarray) else a == b, path
    with pytest.raises(GeometryError) as info:
        CLONES[clone](_tampered(name, value))
    assert info.value.context["index"] == (1, 2)


SERIALIZERS = {
    "Plane": sz.plane_to_json,
    "BundlePoint": sz.bundle_point_to_json,
    "CartanRotation": sz.cartan_rotation_to_json,
    "CartanMotion": sz.cartan_motion_to_json,
}


@pytest.mark.parametrize("name", sorted(SERIALIZERS))
def test_json_holds_one_certified_value_not_a_stack(name):
    value = _stacked_values()[name]
    with pytest.raises(DimensionMismatchError):
        SERIALIZERS[name](value)
    with pytest.raises(DimensionMismatchError):
        sz.motion_to_json(Motion(np.tile(np.eye(N), (3, 1, 1)), np.zeros((3, N))))
    with pytest.raises(DimensionMismatchError):
        sz.screw_to_json(_element(*_draw_elements(make_rng(61, 0), (3,))).screw())


# The validators that check a later operand against the first one's leading
# shape, and the one that words their shape errors, are the only functions
# with a ``batch``; every other map reads its stack shape from its operand.
BATCH_FUNCTIONS = {
    ("matcore", "check_finite_matrix"),
    ("matcore", "check_finite_vector"),
    ("matcore", "_in_stack"),
    ("liegroup", "_checked_motion"),
}
PACKAGE = Path(bn.__file__).parent


def test_only_the_validators_take_a_batch():
    found = set()
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                args = node.args
                names = [a.arg for a in args.posonlyargs + args.args + args.kwonlyargs]
                if "batch" in names:
                    found.add((path.stem, getattr(node, "name", "<lambda>")))
    assert found == BATCH_FUNCTIONS


def test_verify_names_no_private_attribute_of_bundle_grassmann_liegroup_or_projective():
    private = {"bundle", "grassmann", "liegroup", "projective"}
    tree = ast.parse((PACKAGE / "verify.py").read_text())
    aliases = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            for alias in node.names:
                if node.module in private:  # from .bundle import name
                    assert not alias.name.startswith("_"), alias.name
                elif node.module is None and alias.name in private:  # from . import bundle as bn
                    aliases.add(alias.asname or alias.name)
    assert aliases == {"bn", "gr", "lg", "pj"}
    named = {f"{node.value.id}.{node.attr}" for node in ast.walk(tree)
             if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) and node.value.id in aliases}
    assert named and not [name for name in named if name.split(".")[1].startswith("_")]
