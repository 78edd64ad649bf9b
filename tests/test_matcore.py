import ast
import math
from pathlib import Path

import numpy as np
import pytest

import cartanbundle
from cartanbundle import (
    DegenerateSpanError,
    IllConditionedSpectrumError,
    NotOrthogonalSymmetryError,
    Tolerances,
)
from cartanbundle.matcore import (
    canonical_rotation_form,
    complete_to_special_orthogonal,
    eigenspace_of_symmetric_involution,
    orthonormalize,
    skew_canonical_form,
)
from cartanbundle import matcore as mc
from cartanbundle.sampling import make_rng, sample_rotation, sample_skew

from oracles import gram_schmidt_oracle, series_exp_oracle, svd_projector_oracle

SRC = Path(cartanbundle.__file__).parent


class TestSkewWedge:
    def test_two_by_two(self):
        assert mc._wedge(1, 2, 2).tolist() == [[0, 1], [-1, 0]]

    def test_three_by_three(self):
        W = mc._wedge(1, 2, 3)
        expected = np.zeros((3, 3))
        expected[0, 1], expected[1, 0] = 1, -1
        assert np.array_equal(W, expected)

    def test_rotation_convention(self):
        # exp(-theta e_1 ^ e_2) sends e_1 to cos(theta) e_1 + sin(theta) e_2
        R = series_exp_oracle(-(math.pi / 2) * mc._wedge(1, 2, 2))
        assert np.allclose(R @ [1, 0], [0, 1], atol=1e-12)

    def test_antisymmetry_exact(self):
        for n in range(2, 7):
            for i in range(1, n + 1):
                for j in range(i + 1, n + 1):
                    W = mc._wedge(i, j, n)
                    assert np.array_equal(W, -W.T)

    def test_entries_exact(self):
        # 1 at (i, j), -1 at (j, i) and +0 elsewhere, bit for bit
        for n in range(2, 12):
            for i in range(1, n + 1):
                for j in range(i + 1, n + 1):
                    expected = np.zeros((n, n))
                    expected[i - 1, j - 1], expected[j - 1, i - 1] = 1.0, -1.0
                    assert mc._wedge(i, j, n).tobytes() == expected.tobytes()


class TestOrthonormalize:
    def test_already_orthonormal(self):
        V = np.eye(3)[:, :2]
        assert np.allclose(orthonormalize(V), V)

    def test_scaling_removed(self):
        V = np.array([[2.0], [0.0]])
        assert np.allclose(orthonormalize(V), [[1.0], [0.0]])

    def test_span_preserved(self):
        V = np.array([[1.0, 0.0], [1.0, 1.0]])
        F = orthonormalize(V)
        assert np.allclose(F.T @ F, np.eye(2), atol=1e-12)
        assert np.allclose(mc._projector(F), svd_projector_oracle(V), atol=1e-12)

    def test_random_spans(self, rng):
        for _ in range(50):
            n = int(rng.integers(2, 7))
            p = int(rng.integers(1, n))
            V = rng.standard_normal((n, p))
            F = orthonormalize(V)
            assert np.allclose(F.T @ F, np.eye(p), atol=1e-12)
            assert np.allclose(mc._projector(F), svd_projector_oracle(V), atol=1e-10)

    def test_deterministic(self, rng):
        V = rng.standard_normal((5, 3))
        assert np.array_equal(orthonormalize(V), orthonormalize(V.copy()))

    def test_rank_deficient(self):
        V = np.array([[1.0, 2.0], [1.0, 2.0]])
        with pytest.raises(DegenerateSpanError):
            orthonormalize(V)

    @pytest.mark.parametrize("scale", [1e-3, 1.0, 1e6])
    def test_rank_cutoff_is_relative_to_max_one_and_the_largest(self, scale):
        # the cutoff is the fixed _RANK_TOL max(1, largest singular value):
        # absolute for a span smaller than 1, relative for a larger one
        cutoff = mc._RANK_TOL * max(1.0, scale)
        assert orthonormalize(np.diag([scale, 2.0 * cutoff])).shape == (2, 2)
        with pytest.raises(DegenerateSpanError):
            orthonormalize(np.diag([scale, 0.5 * cutoff]))

    def test_takes_no_rank_tolerance(self):
        # the rank cutoff is a constant, not a setting
        with pytest.raises(TypeError, match="tol"):
            orthonormalize(np.eye(2), tol=1e-3)

    def test_more_vectors_than_dimensions(self):
        with pytest.raises(DegenerateSpanError) as info:
            orthonormalize(np.ones((2, 3)))
        assert info.value.code == "degenerate_spanning_set"

    @pytest.mark.parametrize("n, p", [(4, 2), (8, 3), (32, 5), (5, 5)])
    def test_matches_gram_schmidt(self, n, p):
        for seed in range(20):
            V = make_rng(seed, n).standard_normal((n, p))
            assert np.max(np.abs(orthonormalize(V) - gram_schmidt_oracle(V))) <= 1e-13


class TestProjector:
    def test_axis(self):
        assert np.array_equal(mc._projector(np.array([[1.0], [0.0]])), np.diag([1.0, 0.0]))

    def test_full_space(self):
        assert np.allclose(mc._projector(np.eye(2)), np.eye(2))

    def test_diagonal_line(self):
        F = np.array([[1.0], [1.0]]) / math.sqrt(2)
        assert np.allclose(mc._projector(F), [[0.5, 0.5], [0.5, 0.5]])


class TestCompletion:
    def test_coordinate_frame(self):
        F = np.eye(4)[:, :2]
        A = complete_to_special_orthogonal(F)
        assert np.allclose(A[:, :2], F)
        assert np.allclose(A.T @ A, np.eye(4), atol=1e-12)
        assert np.isclose(np.linalg.det(A), 1.0)

    def test_e2_line(self):
        A = complete_to_special_orthogonal(np.array([[0.0], [1.0]]))
        assert np.isclose(np.linalg.det(A), 1.0)
        assert np.allclose(np.abs(A[:, 0]), [0, 1])

    def test_random_frames(self, rng):
        for _ in range(50):
            n = int(rng.integers(2, 8))
            p = int(rng.integers(1, n + 1))
            F = orthonormalize(rng.standard_normal((n, p)))
            if p == n and np.linalg.det(F) < 0:
                # no matrix in SO(n) has F as its leading block
                with pytest.raises(IllConditionedSpectrumError):
                    complete_to_special_orthogonal(F)
                continue
            A = complete_to_special_orthogonal(F)
            assert abs(np.linalg.det(A) - 1.0) < 1e-10
            assert np.allclose(mc._projector(A[:, :p]), mc._projector(F), atol=1e-9)
            assert np.array_equal(A[:, :p], F)

    @pytest.mark.parametrize("n", [2, 3, 5])
    def test_square_frame_with_negative_det_raises(self, n):
        F = np.diag([1.0] * (n - 1) + [-1.0])
        with pytest.raises(IllConditionedSpectrumError):
            complete_to_special_orthogonal(F)

    def test_pure_function_of_frame(self, rng):
        F = orthonormalize(rng.standard_normal((5, 2)))
        assert np.array_equal(
            complete_to_special_orthogonal(F), complete_to_special_orthogonal(F.copy())
        )


def rot2(theta):
    c, s = math.cos(theta), math.sin(theta)
    return np.array([[c, -s], [s, c]])


def _rebuilt(Q, angles, rotation):
    """Q blockdiag(blocks of angles, I or 0) Q^T, as the ``matcore.canonical_form_reconstruction`` row builds it."""
    return Q @ mc._blocks(angles, Q.shape[0], rotation) @ Q.T


class TestCanonicalRotationForm:
    def test_identity(self):
        Q, angles = canonical_rotation_form(np.eye(3))
        assert angles.shape == (0,)
        assert Q.shape == (3, 3)

    def test_already_canonical(self):
        R = np.eye(3)
        R[:2, :2] = rot2(math.pi / 2)
        Q, angles = canonical_rotation_form(R)
        assert angles.shape == (1,)
        assert np.allclose(angles, [math.pi / 2])
        assert np.allclose(_rebuilt(Q, angles, True), R, atol=1e-12)

    def test_minus_identity(self):
        Q, angles = canonical_rotation_form(-np.eye(2))
        assert np.allclose(angles, [math.pi])
        assert np.allclose(_rebuilt(Q, angles, True), -np.eye(2), atol=1e-12)

    def test_random_reconstruction(self, rng):
        for _ in range(200):
            n = int(rng.integers(2, 9))
            R = sample_rotation(rng, n)
            Q, angles = canonical_rotation_form(R)
            assert np.linalg.norm(_rebuilt(Q, angles, True) - R) <= 1e-10
            assert abs(np.linalg.det(Q) - 1.0) < 1e-10
            assert np.allclose(Q.T @ Q, np.eye(n), atol=1e-12)
            assert np.all(angles[:-1] >= angles[1:] - 1e-15)
            assert np.all(np.abs(angles) <= math.pi)
            assert np.all(angles != 0)
            assert angles.ndim == 1 and 2 * angles.size <= n

    def test_non_orthogonal_rejected(self):
        with pytest.raises(IllConditionedSpectrumError):
            canonical_rotation_form(np.array([[1.0, 1.0], [0.0, 1.0]]))

    def test_a_reflection_is_rejected_as_the_logs_reject_it(self):
        # det R = -1: the default bound takes its sign from the log's split; under tol.orth = 1 the LU passes
        # R, and the odd count below the split raises
        Q = sample_rotation(make_rng(53, 1), 4)
        R = Q @ np.diag([-1.0, 1.0, 1.0, 1.0]) @ Q.T
        with pytest.raises(IllConditionedSpectrumError) as info:
            canonical_rotation_form(R)
        assert info.value.detail == "matrix has determinant != +1" and info.value.context == {}
        with pytest.raises(IllConditionedSpectrumError) as info:
            canonical_rotation_form(R, Tolerances(orth=1.0))
        assert info.value.detail == "ill-conditioned spectrum: odd count of angles near pi"


def _assert_form_contract(form, M, rotation):
    """Q in SO(n); angles nonzero and descending, in (-pi, pi] for a rotation; M rebuilt."""
    n = M.shape[0]
    Q, angles = form
    assert np.allclose(Q.T @ Q, np.eye(n), atol=1e-12)
    assert abs(np.linalg.det(Q) - 1.0) < 1e-12
    assert Q.shape == (n, n) and angles.ndim == 1 and 2 * angles.size <= n
    assert np.all(angles != 0) and np.all(angles[:-1] >= angles[1:])
    if rotation:
        assert np.all((-math.pi < angles) & (angles <= math.pi))
        assert np.linalg.norm(_rebuilt(Q, angles, True) - M) <= 1e-10 * n
    else:
        assert np.linalg.norm(_rebuilt(Q, angles, False) - M) <= 1e-10 * n * max(1.0, np.linalg.norm(M))


def _flipped_draw(draw, rotation, keep=lambda s: True):
    """(M, Q, s): the first draw M over seeds whose turning pairs (Q, s) have det -1.

    (Q, s) are ``_skew_pairs`` of M, or of log M for a rotation, with the
    angles of a rotation clamped to pi; ``keep(s)`` must hold too. The form
    reverses the order of the pairs, an even permutation of the columns, so
    such a draw takes a determinant branch of ``_assemble_form``.
    """
    for seed in range(64):
        M = draw(make_rng(seed, 0))
        Q, s = mc._skew_pairs(mc._rotation_log(M)[0] if rotation else M)
        s = np.minimum(s, math.pi) if rotation else s
        if np.linalg.det(Q) < 0 and keep(s):
            return M, Q, s
    pytest.fail("no draw has turning pairs with det -1")


class TestDeterminantBranches:
    @pytest.mark.parametrize("n", [3, 5])
    def test_skew_with_a_kernel_negates_its_last_column(self, n):
        W, Q, s = _flipped_draw(lambda rng: sample_skew(rng, n), rotation=False)
        form = skew_canonical_form(W)
        _assert_form_contract(form, W, rotation=False)
        assert np.array_equal(form[0][:, -1], -Q[:, -1])
        assert form[1].tolist() == s[::-1].tolist()

    @pytest.mark.parametrize("n", [3, 5])
    def test_rotation_with_a_kernel_negates_its_last_column(self, n):
        R, Q, s = _flipped_draw(lambda rng: sample_rotation(rng, n), rotation=True)
        form = canonical_rotation_form(R)
        _assert_form_contract(form, R, rotation=True)
        assert np.array_equal(form[0][:, -1], -Q[:, -1])
        assert form[1].tolist() == s[::-1].tolist()

    @pytest.mark.parametrize("n", [2, 4, 6])
    def test_skew_without_a_kernel_swaps_and_negates_the_smallest_block(self, n):
        W, Q, s = _flipped_draw(lambda rng: sample_skew(rng, n), rotation=False)
        form = skew_canonical_form(W)
        _assert_form_contract(form, W, rotation=False)
        assert 2 * form[1].size == n and form[1][-1] == -s[0]
        assert np.array_equal(form[0][:, -2:], Q[:, 1::-1])

    @pytest.mark.parametrize("n", [2, 4, 6])
    def test_rotation_without_a_kernel_swaps_and_negates_the_smallest_block(self, n):
        R, Q, s = _flipped_draw(lambda rng: sample_rotation(rng, n), rotation=True)
        form = canonical_rotation_form(R)
        _assert_form_contract(form, R, rotation=True)
        assert 2 * form[1].size == n and form[1][-1] == -s[0]
        assert np.array_equal(form[0][:, -2:], Q[:, 1::-1])

    @pytest.mark.parametrize("n", [2, 4, 6])
    def test_all_pi_rotation(self, n):
        form = canonical_rotation_form(-np.eye(n))
        _assert_form_contract(form, -np.eye(n), rotation=True)
        assert form[1].tolist() == [math.pi] * (n // 2)

    def test_all_pi_rotation_keeps_pi_when_its_smallest_block_is_swapped(self):
        # a turn by pi is its own inverse, so the swap leaves the angle at pi
        def draw(rng):
            A = sample_rotation(rng, 4)
            return -(A @ A.T)  # -I, up to rounding

        R, Q, _ = _flipped_draw(draw, rotation=True, keep=lambda s: np.all(s == math.pi))
        form = canonical_rotation_form(R)
        _assert_form_contract(form, R, rotation=True)
        assert form[1].tolist() == [math.pi, math.pi]
        assert np.array_equal(form[0][:, -2:], Q[:, 1::-1])


class TestSkewCanonicalForm:
    def test_reconstruction(self, rng):
        for _ in range(100):
            n = int(rng.integers(2, 9))
            W = float(rng.uniform(0.1, 5)) * sample_skew(rng, n)
            Q, angles = skew_canonical_form(W)
            assert np.linalg.norm(_rebuilt(Q, angles, False) - W) <= 1e-10 * n * max(
                1.0, np.linalg.norm(W)
            )
            assert series_exp_oracle(W).shape == _rebuilt(Q, angles, True).shape


class TestEigenspaceOfSymmetricInvolution:
    def test_diagonal_signature(self):
        J = np.diag([-1.0, -1.0, 1.0, 1.0])
        F = eigenspace_of_symmetric_involution(J, -1)
        assert F.shape == (4, 2)
        assert np.allclose(mc._projector(F), np.diag([1.0, 1.0, 0.0, 0.0]))

    def test_empty_eigenspace(self):
        F = eigenspace_of_symmetric_involution(np.eye(3), -1)
        assert F.shape == (3, 0)

    def test_conjugated_signature(self, rng):
        J = np.diag([-1.0, -1.0, 1.0, 1.0])
        for _ in range(50):
            A = sample_rotation(rng, 4)
            S = A @ J @ A.T
            F = eigenspace_of_symmetric_involution(S, -1)
            assert F.shape == (4, 2)
            assert np.linalg.norm(S @ F + F) <= 1e-10

    def test_rejects_non_symmetry(self, rng):
        with pytest.raises(NotOrthogonalSymmetryError):
            eigenspace_of_symmetric_involution(rot2(0.3), -1)


# Grouping without np.unique: _distinct and _groups give np.unique's values, in its ascending order.
KEYS = {
    "random": make_rng(46, 0).integers(0, 7, 200),
    "one element": np.array([4]),
    "all equal": np.full(30, 3),
    "negatives": np.array([-3, 5, -3, 0, -7, 5, -1]),
    "2-d": make_rng(46, 1).integers(-2, 3, (4, 5)),
    "0-d": np.array(6),
}


@pytest.mark.parametrize("key", KEYS.values(), ids=KEYS.keys())
def test_distinct_is_numpy_unique(key):
    got, expected = mc._distinct(key), np.unique(key)
    assert got.dtype == expected.dtype and got.shape == expected.shape
    assert got.tolist() == expected.tolist()


@pytest.mark.parametrize("key", KEYS.values(), ids=KEYS.keys())
def test_groups_take_numpy_unique_values_in_order(key):
    groups = mc._groups(key)
    if key.ndim == 0:  # one operand: one group, which indexes the operand itself
        assert len(groups) == 1 and groups[0][0] == key and groups[0][1] is Ellipsis
        return
    assert [k for k, _ in groups] == np.unique(key).tolist()
    for k, at in groups:
        assert np.array_equal(at, key == k)


def test_distinct_of_no_keys_is_empty():
    assert mc._distinct(np.array([], dtype=np.int64)).tolist() == []


def test_no_module_calls_numpy_unique():
    """NumPy 2.4's np.unique imports numpy.ma on its first call, about 10 ms; the package groups with _distinct."""
    calls = set()
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if (isinstance(node, ast.Attribute) and node.attr == "unique" and isinstance(node.value, ast.Name)
                    and node.value.id in ("np", "numpy")):
                calls.add((path.stem, node.lineno))
            elif isinstance(node, ast.ImportFrom) and (node.module or "").startswith("numpy"):
                calls.update((path.stem, node.lineno) for alias in node.names if alias.name == "unique")
    assert calls == set()
