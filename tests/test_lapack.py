"""The LAPACK boundary: ``matcore``'s kernels against ``numpy.linalg``, their failures, and who calls LAPACK.

Each kernel calls the gufunc of ``numpy.linalg._umath_linalg`` that
``numpy.linalg`` calls, with the same signature, so its outputs must equal
``numpy.linalg``'s bit for bit, on one matrix and on stacks, on tall,
square and wide operands, and on read-only and non-contiguous ones.
"""

import ast
import warnings
from pathlib import Path

import numpy as np
import pytest
from numpy.linalg import _umath_linalg

import cartanbundle
from cartanbundle import (
    DpGenerator,
    IllConditionedSpectrumError,
    Screw,
    complete_to_special_orthogonal,
    dp_exp,
    orthonormalize,
    plane_from_frame,
    principal_angles,
    se_exp,
)
from cartanbundle import matcore as mc
from cartanbundle.sampling import make_rng


def same_bits(x, y) -> bool:
    x, y = np.asarray(x), np.asarray(y)
    return x.shape == y.shape and x.dtype == y.dtype and x.tobytes() == y.tobytes()


def _read_only(a):
    a = a.copy()
    a.flags.writeable = False
    return a


# leading shapes: one matrix, a stack, a stack of one
LEADS = [(), (5,), (1,)]
# (rows, cols): tall, square, wide
SHAPES = [(5, 3), (4, 4), (3, 5)]


def _operands(lead, m, n):
    """m x n operands of leading shape ``lead`` in four layouts: C-ordered, read-only, column-major (a transpose) and strided."""
    a = make_rng(3, 0).standard_normal((*lead, m + 1, n + 1))
    base = np.ascontiguousarray(a[..., :m, :n])
    return {
        "contiguous": base,
        "read-only": _read_only(base),
        "transposed": np.ascontiguousarray(a[..., :n, :m]).mT,
        "strided": a[..., 1:, 1:],
    }


def _symmetric(lead, n, complex_=False):
    """Symmetric (or complex Hermitian) n x n operands in the four layouts of ``_operands``."""
    a = make_rng(3, 0).standard_normal((*lead, n + 1, n + 1))
    if complex_:
        a = a + 1j * make_rng(4, 0).standard_normal(a.shape)
    whole = a + a.conj().mT
    s = np.ascontiguousarray(whole[..., :n, :n])
    return {
        "contiguous": s,
        "read-only": _read_only(s),
        "transposed": np.ascontiguousarray(s.mT).mT,
        "strided": whole[..., 1:, 1:],
    }


def _unchanged(kernel, a, *args):
    """kernel(a, *args), after which a must still hold its bits."""
    before = a.copy()
    out = kernel(a, *args)
    assert same_bits(a, before)
    return out


@pytest.mark.parametrize("lead", LEADS)
@pytest.mark.parametrize("complex_", [False, True], ids=["real", "hermitian"])
def test_eigh_is_numpy_eigh(lead, complex_):
    for layout, s in _symmetric(lead, 4, complex_).items():
        w, V = _unchanged(mc._eigh, s)
        w_np, V_np = np.linalg.eigh(s)
        assert same_bits(w, w_np) and same_bits(V, V_np), layout


def test_eigh_of_a_skew_times_i_is_numpy_eigh():
    W = _operands((3,), 6, 6)["contiguous"]
    H = 1j * (W - W.mT)
    w, V = mc._eigh(H)
    assert all(map(same_bits, (w, V), np.linalg.eigh(H)))


@pytest.mark.parametrize("lead", LEADS)
@pytest.mark.parametrize("m, n", SHAPES)
@pytest.mark.parametrize("full", [False, True], ids=["thin", "full"])
def test_svd_is_numpy_svd(lead, m, n, full):
    for layout, a in _operands(lead, m, n).items():
        out = _unchanged(mc._svd, a, full)
        assert all(map(same_bits, out, np.linalg.svd(a, full_matrices=full))), layout


@pytest.mark.parametrize("lead", LEADS)
@pytest.mark.parametrize("m, n", SHAPES)
def test_singular_values_are_numpy_svd_values(lead, m, n):
    for layout, a in _operands(lead, m, n).items():
        s = _unchanged(mc._singular_values, a)
        assert same_bits(s, np.linalg.svd(a, compute_uv=False)), layout
        assert same_bits(s[..., 0], np.linalg.norm(a, 2, axis=(-2, -1))), layout


@pytest.mark.parametrize("lead", LEADS)
@pytest.mark.parametrize("m, n", SHAPES)
@pytest.mark.parametrize("complete", [False, True], ids=["reduced", "complete"])
def test_qr_is_numpy_qr(lead, m, n, complete):
    for layout, a in _operands(lead, m, n).items():
        Q, H = _unchanged(mc._householder_qr, a, complete)[:2]
        Q_np, R_np = np.linalg.qr(a, mode="complete" if complete else "reduced")
        assert same_bits(Q, Q_np), layout
        assert same_bits(np.triu(H[..., : Q.shape[-1], :]), R_np), layout  # R is the raw factor's upper triangle


@pytest.mark.parametrize("lead", LEADS)
@pytest.mark.parametrize("m, n", [(5, 3), (4, 4)])
def test_sign_fixed_qr_is_the_sign_fixed_numpy_qr(lead, m, n):
    for layout, a in _operands(lead, m, n).items():
        Q_np, R_np = np.linalg.qr(a)
        expected = Q_np * np.sign(np.diagonal(R_np, axis1=-2, axis2=-1))[..., None, :]
        assert same_bits(_unchanged(mc._sign_fixed_qr, a), expected), layout


@pytest.mark.parametrize("lead", LEADS)
@pytest.mark.parametrize("p", [2, 4])
def test_frame_completion_takes_numpy_complete_qr(lead, p):
    """The complement is the complete Q's trailing columns; at p = n the reduced Q, as numpy.linalg picks."""
    F = mc._sign_fixed_qr(_operands(lead, 4, p)["contiguous"])
    if p == 4:  # a square frame is completed only from det +1
        F[..., -1] *= np.sign(np.linalg.det(F))[..., None]
    A = complete_to_special_orthogonal(F)
    Q_np = np.linalg.qr(F, mode="complete")[0]
    expected = np.concatenate([F, Q_np[..., p:]], axis=-1)
    expected[..., -1] *= np.where(np.linalg.det(expected) < 0, -1.0, 1.0)[..., None]
    assert same_bits(A, expected)


@pytest.mark.parametrize("lead", LEADS)
def test_det_is_numpy_det(lead):
    for layout, a in _operands(lead, 4, 4).items():
        assert same_bits(_unchanged(mc._det, a), np.linalg.det(a)), layout


def test_kernels_warn_of_nothing_and_restore_the_error_state():
    a = _operands((3,), 4, 4)["contiguous"]
    before = np.geterr()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        mc._eigh(a + a.mT), mc._svd(a), mc._svd(a, True), mc._singular_values(a)
        mc._householder_qr(a), mc._householder_qr(a, True), mc._det(a)
    assert np.geterr() == before


def _failing(monkeypatch, gufunc):
    """Make the gufunc fail as LAPACK does when it does not converge: its outputs hold NaN, and the invalid flag is raised."""
    real = getattr(_umath_linalg, gufunc)

    def fake(*args, **kwargs):
        out = real(*args, **kwargs)
        np.divide(np.zeros(1), 0.0)  # 0/0 raises the invalid flag
        return out

    monkeypatch.setattr(_umath_linalg, gufunc, fake)


_A = make_rng(3, 1).standard_normal((4, 3))
_SKEW = _A[:3] - _A[:3].T
_PLANE = plane_from_frame(mc._sign_fixed_qr(_A[:, :2]))

# (gufunc, decomposition, a kernel call that reaches it, a public map that reaches it)
FAILURES = [
    pytest.param("eigh_lo", "eigh", lambda: mc._eigh(_A.T @ _A), lambda: se_exp(Screw(_SKEW, np.ones(3))),
                 id="eigh"),
    pytest.param("svd_s", "svd", lambda: mc._svd(_A), lambda: dp_exp(DpGenerator(2, 2, _A[:2, :2])), id="svd"),
    pytest.param("svd_f", "svd", lambda: mc._svd(_A, True), lambda: principal_angles(_PLANE, _PLANE), id="svd-full"),
    pytest.param("svd", "svd", lambda: mc._singular_values(_A), lambda: orthonormalize(_A), id="svd-values"),
    pytest.param("qr_r_raw", "qr", lambda: mc._householder_qr(_A), lambda: orthonormalize(_A), id="qr-factor"),
    pytest.param("qr_complete", "qr", lambda: mc._householder_qr(_A, True),
                 lambda: complete_to_special_orthogonal(mc._sign_fixed_qr(_A)), id="qr-complete"),
]


@pytest.mark.parametrize("gufunc, decomposition, kernel, public", FAILURES)
def test_a_lapack_failure_raises_ill_conditioned_spectrum(monkeypatch, gufunc, decomposition, kernel, public):
    _failing(monkeypatch, gufunc)
    before = np.geterr()
    for call in (kernel, public):
        with pytest.raises(IllConditionedSpectrumError) as raised:
            call()
        assert raised.value.context == {"decomposition": decomposition}
        assert raised.value.code == "ill_conditioned_spectrum"
        assert np.geterr() == before


def test_numpy_linalg_raises_linalgerror_on_the_same_failure(monkeypatch):
    """The fake is a failure to numpy.linalg too: it would raise its raw LinAlgError."""
    _failing(monkeypatch, "svd_s")
    with pytest.raises(np.linalg.LinAlgError):
        np.linalg.svd(_A, full_matrices=False)


SRC = Path(cartanbundle.__file__).parent
DECOMPOSITIONS = {"eigh", "eigvalsh", "svd", "qr", "det", "slogdet"}
# verify's independent oracles keep numpy.linalg on purpose
ORACLES = {("verify", "svd_projector"), ("verify", "_completion")}


def _linalg_names(tree) -> list:
    """(function, name) for each name a module takes from numpy.linalg; function is the outermost def around it, or None."""
    found = []

    def visit(node, func):
        if func is None and isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            func = node.name
        if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Attribute)
                and node.value.attr == "linalg" and isinstance(node.value.value, ast.Name)
                and node.value.value.id in ("np", "numpy")):
            found.append((func, node.attr))
        elif isinstance(node, ast.ImportFrom) and (node.module or "").startswith("numpy.linalg"):
            found.extend((func, alias.name) for alias in node.names)
        elif isinstance(node, ast.Import):
            found.extend((func, alias.name) for alias in node.names if alias.name.startswith("numpy.linalg"))
        for child in ast.iter_child_nodes(node):
            visit(child, func)

    visit(tree, None)
    return found


def test_only_matcore_calls_lapack():
    """No module names a numpy.linalg decomposition but verify's oracles; only matcore takes the gufuncs."""
    decompositions, gufuncs = set(), set()
    for path in sorted(SRC.glob("*.py")):
        for func, name in _linalg_names(ast.parse(path.read_text())):
            if name in DECOMPOSITIONS:
                decompositions.add((path.stem, func))
            elif name.startswith("numpy.linalg") or name == "_umath_linalg":
                gufuncs.add(path.stem)
    assert decompositions == ORACLES
    assert gufuncs == {"matcore"}
