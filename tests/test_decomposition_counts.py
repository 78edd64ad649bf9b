"""One canonical form per call: the decompositions each public map runs at (4, 2).

Each map is called once on generic inputs (rotation angles below 2 pi / 3,
principal angles above 1e-2), with every LAPACK decomposition counted at its
gufunc (``lapack_spy``): ``eigh``, ``eigvalsh``, ``svd``, ``qr``, ``det``
and ``slogdet``. The inputs are built before counting starts. The line maps
run at (4, 1), and ``moebius_grid`` builds its whole 128 x 9 grid from one
stacked SVD. The logs also run on a rotation with two angles above 3 pi / 4,
which takes the pairing tail of ``matcore._rotation_log``: one ``eigh`` of
the skew block below its split and one complete QR more, as one call. At
the benchmark's screw shape, n = 32, a rotation that turns three planes past
its split of 6 takes the same calls, the second ``eigh`` and the QR on
6 x 6 operands. The logs take the sign of det R from their split, with no
LU ``det``, wherever the orthogonality residual decides it; under
``tol.orth`` = 1 it does not, and the ``det`` runs. On 64 motions drawn
as the benchmark's n = 32 screws are, no log runs a ``det``. The two
certificates take the sign of det R from the count of their S_p0 check's
``eigh`` in the same way, with the same fallback under ``tol.orth`` = 1.
``sample_rotations`` draws a stack of eight rotations from one QR, which
also gives the sign of each determinant, with no ``det``.
"""

import math
from collections import Counter

import numpy as np
import pytest

from cartanbundle import (
    CartanMotion,
    CartanRotation,
    DpElement,
    DpGenerator,
    Motion,
    Screw,
    Signature,
    Tolerances,
    bundle_act,
    bundle_point,
    cartan_embed0,
    coordinate_plane,
    dp_exp,
    dp_exp_full,
    dp_log0,
    dp_log_full,
    find_transporter,
    half_angle_line,
    line_bundle_exp,
    moebius_grid,
    principal_angles,
    rho,
    rho0,
    rho_inv,
    rotation_in_plane,
    se_exp,
    se_log,
    so_exp,
    so_log,
    tau,
    twisted_act,
    twisted_act0,
    y_omega,
    y_omega_solve,
)
from cartanbundle.sampling import make_rng, sample_rotations
from lapack_spy import spy

SIG = Signature(2, 2)

# public map -> the decompositions of one call
EXPECTED = {
    "se_exp": {"eigh": 1},
    "so_exp": {"eigh": 1},
    "y_omega": {"eigh": 1},
    "y_omega_solve": {"eigh": 1},
    "se_log": {"eigh": 1},
    "so_log": {"eigh": 1},
    "se_log (pairing tail)": {"eigh": 2, "qr": 1},
    "so_log (pairing tail)": {"eigh": 2, "qr": 1},
    "se_log (pairing tail, n = 32)": {"eigh": 2, "qr": 1},
    "so_log (pairing tail, n = 32)": {"eigh": 2, "qr": 1},
    "so_log (tol.orth = 1)": {"eigh": 1, "det": 1},
    "CartanRotation.certify": {"eigh": 1},
    "CartanMotion.certify": {"eigh": 1},
    "CartanRotation.certify (tol.orth = 1)": {"eigh": 1, "det": 1},
    "CartanMotion.certify (tol.orth = 1)": {"eigh": 1, "det": 1},
    "sample_rotations": {"qr": 1},
    "dp_exp": {"svd": 1},
    "dp_log0": {"svd": 1},
    "dp_exp_full": {"svd": 1},
    "dp_log_full": {"svd": 1},
    "tau": {"det": 1},
    "find_transporter": {"qr": 1, "det": 1},
    "cartan_embed0": {},
    "rho0": {},
    "rho_inv": {},
    "rho": {},
    "bundle_act": {},
    "twisted_act": {"det": 1},
    "twisted_act0": {"det": 1},
    "rotation_in_plane": {"svd": 1},
    "half_angle_line": {"svd": 1},
    "line_bundle_exp": {"svd": 1},
    "moebius_grid": {"svd": 1},
}


def _split_six() -> np.ndarray:
    """A 32 x 32 rotation that turns three planes by 2.6, 2.9 and 3.1 and the others by at most 1.2: its split is 6."""
    omega = np.zeros((32, 32))
    omega[range(1, 32, 2), range(0, 32, 2)] = [2.6, 2.9, 3.1] + list(np.linspace(0.1, 1.2, 13))
    Q = np.linalg.qr(np.sin(np.arange(32 * 32).reshape(32, 32)))[0]
    R = Q @ so_exp(omega - omega.T) @ Q.T
    assert (np.linalg.eigvalsh(0.5 * (R + R.T)) < -0.75).sum() == 6
    return R


@pytest.fixture(scope="module")
def calls():
    """public map -> a call of it on generic (4, 2) inputs."""
    omega = np.zeros((4, 4))
    omega[0, 1], omega[0, 2], omega[1, 3], omega[2, 3] = 0.9, -0.4, 0.5, 1.1
    omega -= omega.T
    v = np.array([0.3, -1.2, 0.7, 0.4])
    xi = Screw(omega, v)
    g = se_exp(xi)
    assert np.sqrt(np.linalg.eigvalsh(omega.T @ omega)).max() < 2 * math.pi / 3
    gen = DpGenerator(p=2, q=2, B=np.array([[0.7, 0.2], [-0.1, 0.4]]))
    el = DpElement(gen, np.array([0.5, -0.8]))
    cr, cm = dp_exp(gen), dp_exp_full(el)
    src = bundle_point(coordinate_plane(4, 2), np.array([1.0, -2.0, 0.0, 0.0]))
    dst = rho(cm)
    assert principal_angles(src.plane, dst.plane).min() > 1e-2
    U = np.array([0.0, 0.6, 0.8, 0.0])
    # turning angles 2.6 and 2.9 in the planes of g.R: every eigenvalue of (R + R^T)/2 is below -3/4
    wide = np.zeros((4, 4))
    wide[1, 0], wide[3, 2] = 2.6, 2.9
    tail = g.R @ so_exp(wide - wide.T) @ g.R.T
    assert (np.linalg.eigvalsh(0.5 * (tail + tail.T)) < -0.75).all()
    wide32, v32 = _split_six(), np.linspace(-1.0, 1.0, 32)
    return {
        "se_exp": lambda: se_exp(xi),
        "so_exp": lambda: so_exp(omega),
        "y_omega": lambda: y_omega(omega, v),
        "y_omega_solve": lambda: y_omega_solve(omega, g.X),
        "se_log": lambda: se_log(g),
        "so_log": lambda: so_log(g.R),
        "se_log (pairing tail)": lambda: se_log(Motion(tail, v)),
        "so_log (pairing tail)": lambda: so_log(tail),
        "se_log (pairing tail, n = 32)": lambda: se_log(Motion(wide32, v32)),
        "so_log (pairing tail, n = 32)": lambda: so_log(wide32),
        "so_log (tol.orth = 1)": lambda: so_log(g.R, Tolerances(orth=1.0)),
        "CartanRotation.certify": lambda: CartanRotation.certify(cr.mat, SIG),
        "CartanMotion.certify": lambda: CartanMotion.certify(cm.motion, SIG),
        "CartanRotation.certify (tol.orth = 1)": lambda: CartanRotation.certify(cr.mat, SIG, Tolerances(orth=1.0)),
        "CartanMotion.certify (tol.orth = 1)": lambda: CartanMotion.certify(cm.motion, SIG, Tolerances(orth=1.0)),
        "sample_rotations": lambda: sample_rotations(make_rng(51, 0), 4, 8),
        "dp_exp": lambda: dp_exp(gen),
        "dp_log0": lambda: dp_log0(cr),
        "dp_exp_full": lambda: dp_exp_full(el),
        "dp_log_full": lambda: dp_log_full(cm),
        "tau": lambda: tau(g, SIG),
        "find_transporter": lambda: find_transporter(src, dst),
        "cartan_embed0": lambda: cartan_embed0(dst.plane),
        "rho0": lambda: rho0(cr),
        "rho_inv": lambda: rho_inv(dst),
        "rho": lambda: rho(cm),
        "bundle_act": lambda: bundle_act(g, src, SIG),
        "twisted_act": lambda: twisted_act(g, cm.motion, SIG),
        "twisted_act0": lambda: twisted_act0(g.R, cr.mat, SIG),
        "rotation_in_plane": lambda: rotation_in_plane(1.3, U),
        "half_angle_line": lambda: half_angle_line(1.3, U),
        "line_bundle_exp": lambda: line_bundle_exp(1.3, U, 0.7),
        "moebius_grid": lambda: moebius_grid(128, 9, 2.0),
    }


@pytest.mark.parametrize("name", sorted(EXPECTED))
def test_one_canonical_form_per_call(monkeypatch, calls, name):
    counts = Counter()
    spy(monkeypatch, lambda decomposition, a: counts.update([decomposition]))
    calls[name]()
    assert counts == Counter(EXPECTED[name]), name


@pytest.mark.parametrize("name", ["se_log (pairing tail, n = 32)", "so_log (pairing tail, n = 32)"])
def test_the_screw_shape_tail_decomposes_its_6_x_6_block(monkeypatch, calls, name):
    """The second ``eigh`` and the QR run on the skew block below the split, 6 x 6; the first ``eigh`` on R."""
    shapes = []
    spy(monkeypatch, lambda decomposition, a: shapes.append((decomposition, a.shape)))
    calls[name]()
    assert sorted(shapes) == [("eigh", (6, 6)), ("eigh", (32, 32)), ("qr", (6, 6))]


def test_the_logs_run_no_lu_on_screw_shape_inputs(monkeypatch):
    """64 motions at n = 32 drawn as the benchmark's screws are: a random skew scaled to a largest angle up to
    pi - 1e-3, every 8th to one of about 2e-4. Under the default tolerances no ``se_log`` or ``so_log`` of them
    runs an LU ``det``: each residual decides the sign of det R. (Those with planes turned past the split also
    run the pairing tail's ``eigh`` and QR.)"""
    rng = np.random.default_rng(50)
    motions = []
    for i in range(64):
        A = rng.standard_normal((32, 32))
        omega = 0.5 * (A - A.T)
        top = 3e-4 * rng.uniform(0.5, 1.0) if i % 8 == 7 else (math.pi - 1e-3) * rng.uniform(0.05, 1.0)
        motions.append(se_exp(Screw(omega * (top / np.linalg.norm(omega, 2)), rng.standard_normal(32))))
    counts = Counter()
    spy(monkeypatch, lambda decomposition, a: counts.update([decomposition]))
    for g in motions:
        se_log(g)
        so_log(g.R)
    assert counts["det"] == 0 and counts["eigh"] >= 128, counts
