"""Randomized property harness.

Every invariant of the library has a named property here; ``run_verification``
evaluates them on seeded samples and aggregates a report. Each entry of
``PROPERTIES`` is ``fn(cfg, rng) -> (samples, max_error, passed)`` and draws
from its own stream, whose index is the entry's row.

A sampled property is written in two parts. ``draw(cfg, rng, count)``
draws all of its samples at once, as stacks from ``sampling``, and
``check(cfg, *sample) -> (error, ok)`` judges one: ``error`` is the sample's
worst error, and ``ok`` holds its comparisons with the property's bounds and
predicates, so a NaN error makes ``ok`` false. Sample i is index i of each
stack, and ``check`` builds the library objects of that sample alone. One
runner, ``_sampled``, draws ``cfg.samples`` samples, keeps the worst error
(NaN if any is NaN) and passes only if every sample is ok. Because each
property draws its samples grouped by kind, the samples of a run of N are in
general not the first N samples of a longer run. The two properties that
draw nothing, the wedge and the Moebius seam, are written out.

The truncated matrix-power-series exponential lives here purely as a
verification oracle -- the production exponential is a function of one
real symmetric ``eigh``, of omega^T omega.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field

import numpy as np

from . import bundle as bn
from . import grassmann as gr
from . import liegroup as lg
from . import matcore as mc
from . import projective as pj
from . import sampling as sp
from .config import Tolerances, default_tolerances
from .errors import GeometryError
from .liegroup import Motion, Screw


@dataclass(frozen=True)
class VerifyConfig:
    n: int = 4
    p: int = 2
    samples: int = 500
    seed: int = 0
    tol: Tolerances = field(default_factory=default_tolerances)

    def __post_init__(self):
        if not 1 <= self.p < self.n:
            raise ValueError("config requires 1 <= p < n")
        if self.samples < 1:
            raise ValueError("config requires samples >= 1")

    @property
    def sig(self) -> gr.Signature:
        return gr.Signature(self.p, self.n - self.p)


@dataclass(frozen=True)
class PropertyResult:
    name: str
    samples: int
    max_error: float
    passed: bool

    def to_json(self) -> dict:
        return {
            "name": self.name,
            "samples": self.samples,
            "max_error": self.max_error,
            "pass": self.passed,
        }


@dataclass(frozen=True)
class VerifyReport:
    properties: tuple
    passed: bool
    wall_time_s: float

    def to_json(self) -> dict:
        return {
            "properties": [r.to_json() for r in self.properties],
            "pass": self.passed,
            "wall_time_s": self.wall_time_s,
        }


def series_exp(M: np.ndarray, terms: int = 50) -> np.ndarray:
    """Truncated power-series matrix exponential (verification oracle only)."""
    acc = np.eye(M.shape[0])
    term = np.eye(M.shape[0])
    for k in range(1, terms + 1):
        term = term @ M / k
        acc = acc + term
    return acc


def svd_projector(vectors: np.ndarray) -> np.ndarray:
    """Independent projector oracle via SVD range extraction."""
    U, s, _ = np.linalg.svd(vectors, full_matrices=False)
    r = int(np.sum(s > 1e-12 * max(1.0, s[0])))
    return U[:, :r] @ U[:, :r].T


def _motion_dist(a: Motion, b: Motion) -> float:
    return float(np.linalg.norm(a.homogeneous() - b.homogeneous()))


# ---------------------------------------------------------------- properties


def _worst(*errors: float) -> float:
    """The largest error, or NaN if any is NaN.

    ``max(0.0, nan)`` is 0.0, so a plain ``max`` would hide a NaN answer.
    """
    worst = 0.0
    for e in errors:
        if e > worst or e != e:
            worst = e
    return worst


def _sampled(draw):
    """The property that runs ``check(cfg, *sample) -> (error, ok)`` on each sample.

    ``draw(cfg, rng, count)`` draws all ``count`` samples at once, from one
    stream, and returns a tuple of stacks (arrays or lists) whose index i is
    sample i. The runner passes index i of each stack to ``check`` and
    returns (samples, worst error, every sample ok).
    """

    def property_of(check):
        def run(cfg, rng):
            worst, passed = 0.0, True
            for sample in zip(*draw(cfg, rng, cfg.samples)):
                error, ok = check(cfg, *sample)
                worst = _worst(worst, error)
                passed = passed and bool(ok)
            return cfg.samples, worst, passed

        return run

    return property_of


def _per_dimension(dims: np.ndarray, draw) -> tuple:
    """Stacks for samples whose dimension is ``dims[i]``: one ``draw(nn, count)`` per dimension.

    ``draw`` returns a tuple of stacks for ``count`` samples of dimension
    ``nn``; the result holds, for each of them, the tuple of every sample's
    entry in sample order.
    """
    samples = [None] * len(dims)
    for nn in np.unique(dims):
        at = np.flatnonzero(dims == nn)
        for i, sample in zip(at, zip(*draw(int(nn), len(at)))):
            samples[i] = sample
    return tuple(zip(*samples))


def _frames(cfg, rng, count):
    return (sp.sample_frames(rng, cfg.n, cfg.p, count),)


def _rotations(cfg, rng, count):
    return (sp.sample_rotations(rng, cfg.n, count),)


def _motion_pairs(cfg, rng, count):
    return sp.sample_motions(rng, cfg.n, (count, 2))


def _point(F: np.ndarray, Y: np.ndarray) -> bn.BundlePoint:
    return bn.bundle_point(gr.plane_from_frame(F), Y)


def _prop_wedge_antisymmetry(cfg, rng):
    err, count = 0.0, 0
    for nn in range(2, cfg.n + 1):
        for i in range(1, nn + 1):
            for j in range(i + 1, nn + 1):
                W = mc.skew_wedge(i, j, nn)
                err = max(err, float(np.linalg.norm(W + W.T)))
                count += 1
    return count, err, err == 0.0


@_sampled(_frames)
def _prop_projector(cfg, F):
    P = gr.plane_from_frame(F).projector
    err = _worst(float(np.linalg.norm(P @ P - P)), float(np.linalg.norm(P - P.T)))
    return err, err <= 1e-12 * cfg.n


@_sampled(lambda cfg, rng, count: _per_dimension(
    rng.integers(2, min(cfg.n, 8) + 1, size=count),
    lambda nn, k: (sp.sample_rotations(rng, nn, k),),
))
def _prop_canonical_form(cfg, R):
    form = mc.canonical_rotation_form(R, cfg.tol)
    err = float(np.linalg.norm(form.rotation_matrix() - R))
    return err, err <= 1e-10


@_sampled(_frames)
def _prop_completion(cfg, F):
    plane = gr.plane_from_frame(F)
    A = mc.complete_to_special_orthogonal(plane.frame, cfg.tol)
    err = _worst(
        abs(float(np.linalg.det(A)) - 1.0),
        float(np.linalg.norm(mc.projector(A[:, : cfg.p]) - plane.projector)),
    )
    return err, err <= cfg.tol.orth * cfg.n


@_sampled(_rotations)
def _prop_involution_eigenspace(cfg, A):
    S = A @ cfg.sig.matrix @ A.T
    F = mc.eigenspace_of_symmetric_involution(S, -1, cfg.tol)
    err = float(np.linalg.norm(S @ F + F))
    return err, err <= 1e-10


@_sampled(lambda cfg, rng, count: sp.sample_motions(rng, cfg.n, (count, 3)))
def _prop_group_axioms(cfg, R, X):
    g1, g2, g3 = map(Motion, R, X)
    err = _worst(
        _motion_dist(lg.se_mul(lg.se_mul(g1, g2), g3), lg.se_mul(g1, lg.se_mul(g2, g3))),
        _motion_dist(lg.se_mul(g1, lg.se_inv(g1)), lg.identity_motion(cfg.n)),
    )
    return err, err <= 1e-11 * cfg.n


@_sampled(lambda cfg, rng, count: _per_dimension(
    rng.integers(2, min(cfg.n, 6) + 1, size=count),
    lambda nn, k: sp.sample_screws(rng, nn, k, norm_bound=4.0),
))
def _prop_exp_series(cfg, omega, v):
    xi = Screw(omega, v)
    err = float(np.linalg.norm(lg.se_exp(xi).homogeneous() - series_exp(xi.matrix())))
    return err, err <= 1e-9


@_sampled(lambda cfg, rng, count: (
    sp.sample_skews(rng, cfg.n, count), rng.standard_normal((count, cfg.n))
))
def _prop_y_omega_identity(cfg, omega, v):
    Y = lg.y_omega(omega, v)
    err = float(np.linalg.norm(omega @ Y - (lg.so_exp(omega) - np.eye(cfg.n)) @ v))
    return err, err <= 1e-10


def _bounded_skews_and_vectors(max_angle: float):
    def draw(cfg, rng, count):
        return sp.sample_skews_bounded(rng, cfg.n, count, max_angle), rng.standard_normal((count, cfg.n))

    return draw


@_sampled(_bounded_skews_and_vectors(math.pi))
def _prop_y_omega_roundtrip(cfg, omega, v):
    v2 = lg.y_omega_solve(omega, lg.y_omega(omega, v), cfg.tol)
    err = float(np.linalg.norm(v2 - v))
    return err, err <= 1e-9


@_sampled(_bounded_skews_and_vectors(math.pi - 1e-3))
def _prop_log_exp_roundtrip(cfg, omega, v):
    g = lg.se_exp(Screw(omega, v))
    xi = lg.se_log(g, cfg.tol)
    err = _motion_dist(lg.se_exp(xi), g)
    return err, err <= 1e-8


@_sampled(lambda cfg, rng, count: (sp.sample_rotations(rng, cfg.n, (count, 2)),))
def _prop_sigma0_automorphism(cfg, R):
    sig = cfg.sig
    R1, R2 = R
    err_invol = float(np.linalg.norm(gr.sigma0(gr.sigma0(R1, sig), sig) - R1))
    err_hom = float(
        np.linalg.norm(gr.sigma0(R1 @ R2, sig) - gr.sigma0(R1, sig) @ gr.sigma0(R2, sig))
    )
    return _worst(err_invol, err_hom), err_invol == 0.0 and err_hom <= 1e-12 * cfg.n


@_sampled(lambda cfg, rng, count: (
    sp.sample_dp_generators(rng, cfg.p, cfg.n - cfg.p, count),
    sp.sample_rotations(rng, cfg.n, count),
))
def _prop_q0_invariance(cfg, B, A):
    sig = cfg.sig
    R = gr.dp_exp(gr.DpGenerator(cfg.p, cfg.n - cfg.p, B), cfg.tol).mat
    acted = gr.twisted_act0(A, R, sig)
    M = acted @ sig.matrix
    err = float(np.linalg.norm(M @ M - np.eye(cfg.n)))
    return err, gr.in_Q0(acted, sig, cfg.tol) and err <= cfg.tol.invol


def _frames_and_rotations(cfg, rng, count):
    return _frames(cfg, rng, count) + _rotations(cfg, rng, count)


@_sampled(_frames_and_rotations)
def _prop_grassmann_roundtrips(cfg, F, A):
    sig = cfg.sig
    plane = gr.plane_from_frame(F)
    back = gr.rho0(gr.cartan_embed0(plane, cfg.tol))
    err_plane = float(np.linalg.norm(back.projector - plane.projector))
    R = gr.twisted_act0(A, np.eye(cfg.n), sig)
    cr = gr.CartanRotation.certify(R, sig, cfg.tol)
    R2 = gr.cartan_embed0(gr.rho0(cr), cfg.tol).mat
    err_rot = float(np.linalg.norm(R2 - R))
    return _worst(err_plane, err_rot), err_plane <= cfg.tol.plane and err_rot <= 1e-9


@_sampled(_frames_and_rotations)
def _prop_rho0_equivariance(cfg, F, A):
    sig = cfg.sig
    cr = gr.cartan_embed0(gr.plane_from_frame(F), cfg.tol)
    acted = gr.CartanRotation.certify(gr.twisted_act0(A, cr.mat, sig), sig, cfg.tol)
    lhs = gr.rho0(acted)
    rhs = gr.rotate_plane(A, gr.rho0(cr), cfg.tol)
    err = float(np.linalg.norm(lhs.projector - rhs.projector))
    return err, err <= cfg.tol.plane


@_sampled(lambda cfg, rng, count: (
    sp.sample_dp_generators(rng, cfg.p, cfg.n - cfg.p, count, bound=math.pi - 0.1),
))
def _prop_dp_log0_roundtrip(cfg, B):
    gen = gr.DpGenerator(cfg.p, cfg.n - cfg.p, B)
    cr = gr.dp_exp(gen, cfg.tol)
    gen2 = gr.dp_log0(cr, cfg.tol)
    err = _worst(
        float(np.linalg.norm(gen2.B - gen.B)),
        float(np.linalg.norm(gr.dp_exp(gen2, cfg.tol).mat - cr.mat)),
    )
    return err, err <= 1e-8


def _fixed_point_residual(g: Motion, sig: gr.Signature) -> tuple:
    """(|sigma(g) - g|, whether it is twice the norm of g's off-block entries).

    The off-block entries are R[:p, p:], R[p:, :p] and X[:p]; the two
    residuals must agree within 1e-12 (1 + r).
    """
    p = sig.p
    r = float(np.linalg.norm(bn.sigma(g, sig).homogeneous() - g.homogeneous()))
    off = math.sqrt(
        np.linalg.norm(g.R[:p, p:]) ** 2 + np.linalg.norm(g.R[p:, :p]) ** 2 + np.linalg.norm(g.X[:p]) ** 2
    )
    return r, abs(r - 2.0 * off) <= 1e-12 * (1.0 + r)


@_sampled(lambda cfg, rng, count: (
    *sp.sample_fixed_points(rng, cfg.sig, count), *sp.sample_motions(rng, cfg.n, count)
))
def _prop_fixed_point_characterization(cfg, R, X, Rh, Xh):
    sig = cfg.sig
    g = Motion(R, X)
    r, agree = _fixed_point_residual(g, sig)
    # generic motions are not fixed
    h = Motion(Rh, Xh)
    ok = agree and bn.is_fixed_point(g, sig, cfg.tol)
    ok = ok and _fixed_point_residual(h, sig)[1] and not bn.is_fixed_point(h, sig, cfg.tol)
    return r, ok and r <= 1e-12 * cfg.n


@_sampled(_motion_pairs)
def _prop_q_invariance(cfg, R, X):
    sig = cfg.sig
    s = bn.tau(Motion(R[0], X[0]), sig)
    a = Motion(R[1], X[1])
    acted = bn.twisted_act(a, s.motion, sig)
    diff = lg.se_mul(bn.sigma(acted, sig), acted).homogeneous() - np.eye(cfg.n + 1)
    err = float(np.linalg.norm(diff))
    # the closed form against plain group arithmetic
    generic = lg.se_mul(lg.se_mul(a, s.motion), bn.sigma(lg.se_inv(a), sig))
    scale = 1.0 + np.linalg.norm(a.X) + np.linalg.norm(s.motion.X)
    routes_ok = _motion_dist(acted, generic) <= 1e-11 * cfg.n * scale
    return err, bn.in_Q(acted, sig, cfg.tol) and routes_ok


def _carried_frame_drift(s: bn.CartanMotion) -> float:
    """|P_carried - P_eigh| for a motion built in S_p by construction.

    The motion is passed through the public constructor under its own
    tolerances, which raises if it misses S_p; the distance is between the
    projectors of the frame it carries and of the frame that check finds.
    """
    checked = bn.CartanMotion(s.motion, s.sig, s._tol)
    return float(np.linalg.norm(mc.projector(s._frame) - mc.projector(checked._frame)))


@_sampled(lambda cfg, rng, count: sp.sample_motions(rng, cfg.n, count))
def _prop_tau_properties(cfg, R, X):
    sig = cfg.sig
    t = bn.tau(Motion(R, X), sig, cfg.tol)
    err = _worst(
        _motion_dist(bn.sigma(t.motion, sig), lg.se_inv(t.motion)), _carried_frame_drift(t)
    )
    return err, err <= 1e-10


@_sampled(lambda cfg, rng, count: (
    sp.sample_rotations(rng, cfg.n, count), rng.standard_normal((count, cfg.n))
))
def _prop_projection_identity(cfg, A, X):
    D = bn.double_projection(A, X, cfg.sig, cfg.tol)
    # twice the projection onto A.pi0, with the projector from an SVD
    P = svd_projector(A[:, : cfg.p])
    err = float(np.linalg.norm(D - 2.0 * P @ X))
    return err, err <= 1e-10


def _point_dist(a: bn.BundlePoint, b: bn.BundlePoint) -> float:
    """The worse of the plane and the fiber distance between two bundle points."""
    return _worst(
        float(np.linalg.norm(a.plane.projector - b.plane.projector)),
        float(np.linalg.norm(a.fiber - b.fiber)),
    )


@_sampled(_motion_pairs)
def _prop_rho_equivariance(cfg, R, X):
    sig = cfg.sig
    s = bn.tau(Motion(R[0], X[0]), sig)
    a = Motion(R[1], X[1])
    acted = bn.CartanMotion.certify(bn.twisted_act(a, s.motion, sig), sig, cfg.tol)
    err = _point_dist(bn.rho(acted), bn.bundle_act(a, bn.rho(s), sig, cfg.tol))
    return err, err <= 1e-9


@_sampled(lambda cfg, rng, count: (
    *sp.sample_motions(rng, cfg.n, count), *sp.sample_bundle_points(rng, cfg.n, cfg.p, count)
))
def _prop_rho_bijectivity(cfg, R, X, F, Y):
    s = bn.tau(Motion(R, X), cfg.sig)
    s2 = bn.rho_inv(bn.rho(s), cfg.tol)
    b = _point(F, Y)
    s3 = bn.rho_inv(b, cfg.tol)
    drift = _worst(_carried_frame_drift(s2), _carried_frame_drift(s3))
    err = _worst(_motion_dist(s2.motion, s.motion), _point_dist(bn.rho(s3), b))
    return _worst(err, drift), err <= 1e-9 and drift <= 1e-10


@_sampled(lambda cfg, rng, count: (
    *_motion_pairs(cfg, rng, count), *sp.sample_bundle_points(rng, cfg.n, cfg.p, count)
))
def _prop_action_law(cfg, R, X, F, Y):
    sig = cfg.sig
    a1, a2 = map(Motion, R, X)
    b = _point(F, Y)
    lhs = bn.bundle_act(lg.se_mul(a1, a2), b, sig, cfg.tol)
    rhs = bn.bundle_act(a1, bn.bundle_act(a2, b, sig, cfg.tol), sig, cfg.tol)
    err = _point_dist(lhs, rhs)
    return err, err <= 1e-10


@_sampled(lambda cfg, rng, count: sp.sample_dp_elements(
    rng, cfg.p, cfg.n - cfg.p, count, bound=math.pi - 0.1
))
def _prop_dp_full_routes(cfg, B, v):
    xi = bn.DpElement(gen=gr.DpGenerator(cfg.p, cfg.n - cfg.p, B), v=v)
    s = bn.dp_exp_full(xi, cfg.tol)
    # the closed form against the generic eigh route of se_exp, and
    # against the doubling identity exp(xi) = tau(exp(xi/2))
    screw = xi.screw()
    g = lg.se_exp(screw)
    half = lg.se_exp(Screw(0.5 * screw.omega, 0.5 * screw.v))
    routes_ok = _motion_dist(s.motion, g) <= 1e-10 * cfg.n * (1.0 + np.linalg.norm(g.X))
    routes_ok = routes_ok and _motion_dist(s.motion, bn.tau(half, cfg.sig, cfg.tol).motion) <= (
        1e-10 * cfg.n * (1.0 + np.linalg.norm(s.motion.X))
    )
    drift = _carried_frame_drift(s)
    xi2 = bn.dp_log_full(s, cfg.tol)
    err = _worst(
        float(np.linalg.norm(xi2.gen.B - xi.gen.B)),
        float(np.linalg.norm(xi2.v - xi.v)),
    )
    return _worst(err, drift), routes_ok and err <= 1e-8 and drift <= 1e-10


@_sampled(lambda cfg, rng, count: sp.sample_bundle_points(rng, cfg.n, cfg.p, (count, 2)))
def _prop_transporter(cfg, F, Y):
    src, dst = map(_point, F, Y)
    a = bn.find_transporter(src, dst)
    err = _point_dist(bn.bundle_act(a, src, cfg.sig, cfg.tol), dst)
    return err, err <= 1e-9


def _directions(cfg, rng, count):
    """Unit directions U of dimensions 2 to min(n, 5), and angles theta in [0, 2 pi)."""
    (U,) = _per_dimension(
        rng.integers(2, min(cfg.n, 5) + 1, size=count),
        lambda nn, k: (sp.sample_unit_directions(rng, nn, k),),
    )
    return U, rng.uniform(0.0, 2.0 * math.pi, count)


@_sampled(lambda cfg, rng, count: (*_directions(cfg, rng, count), rng.uniform(-2.0, 2.0, count)))
def _prop_line_bundle_exp(cfg, U, theta, lam):
    nn, theta, lam = len(U), float(theta), float(lam)
    m = pj.line_bundle_exp(theta, U, lam)
    E1 = mc.basis_vector(1, nn)
    xi = Screw(-theta * (np.outer(E1, U) - np.outer(U, E1)), lam * E1)
    # fiber sits on the half-angle line
    V = pj.half_angle_line(theta, U).frame[:, 0]
    err = _worst(_motion_dist(m, lg.se_exp(xi)), float(np.linalg.norm(m.X - V * (V @ m.X))))
    return err, err <= 1e-10


@_sampled(_directions)
def _prop_half_angle_line(cfg, U, theta):
    theta, sig = float(theta), gr.Signature(1, len(U) - 1)
    cr = gr.CartanRotation.certify(pj.rotation_in_plane(theta, U), sig, cfg.tol)
    plane = gr.rho0(cr)
    err = float(np.linalg.norm(plane.projector - pj.half_angle_line(theta, U).projector))
    return err, err <= cfg.tol.plane


def moebius_seam_check(num_theta: int = 128, num_lambda: int = 9, lambda_max: float = 2.0):
    """Seam property of the Moebius grid.

    Returns (pairs checked, max line-angle deviation, all orientation flips
    observed). The last theta row must carry the same lines as theta = 0
    within the grid resolution, with fiber orientation reversed relative to
    the matching -lambda record.
    """
    records = pj.moebius_grid(num_theta, num_lambda, lambda_max)
    per_theta = num_lambda
    first = records[:per_theta]
    last = records[-per_theta:]
    resolution = 2.0 * math.pi / num_theta
    max_dev = 0.0
    flips_ok = True
    pairs = 0
    for rec_last in last:
        lam = rec_last["lambda"]
        rec_first = min(first, key=lambda r: abs(r["lambda"] - (-lam)))
        # line coincidence modulo pi
        d = (rec_last["line_angle"] - rec_first["line_angle"]) % math.pi
        dev = min(d, math.pi - d)
        max_dev = max(max_dev, dev)
        if abs(lam) > 1e-12:
            # fiber direction along e_1 must reverse across the seam
            if math.copysign(1.0, rec_last["y0"]) != math.copysign(1.0, -lam):
                flips_ok = False
        pairs += 1
    return pairs, max_dev, flips_ok, resolution


def _prop_moebius_seam(cfg, rng):
    pairs, max_dev, flips_ok, resolution = moebius_seam_check()
    return pairs, max_dev, flips_ok and max_dev <= resolution


PROPERTIES = (
    ("matcore.wedge_antisymmetry", _prop_wedge_antisymmetry),
    ("matcore.projector_idempotent_symmetric", _prop_projector),
    ("matcore.canonical_form_reconstruction", _prop_canonical_form),
    ("matcore.frame_completion", _prop_completion),
    ("matcore.involution_eigenspace", _prop_involution_eigenspace),
    ("liegroup.group_axioms", _prop_group_axioms),
    ("liegroup.exp_matches_series", _prop_exp_series),
    ("liegroup.y_omega_identity", _prop_y_omega_identity),
    ("liegroup.y_omega_roundtrip", _prop_y_omega_roundtrip),
    ("liegroup.log_exp_roundtrip", _prop_log_exp_roundtrip),
    ("grassmann.sigma0_automorphism", _prop_sigma0_automorphism),
    ("grassmann.q0_invariance", _prop_q0_invariance),
    ("grassmann.cartan_roundtrips", _prop_grassmann_roundtrips),
    ("grassmann.rho0_equivariance", _prop_rho0_equivariance),
    ("grassmann.dp_log0_roundtrip", _prop_dp_log0_roundtrip),
    ("bundle.fixed_point_characterization", _prop_fixed_point_characterization),
    ("bundle.q_invariance", _prop_q_invariance),
    ("bundle.tau_properties", _prop_tau_properties),
    ("bundle.projection_identity", _prop_projection_identity),
    ("bundle.rho_equivariance", _prop_rho_equivariance),
    ("bundle.rho_bijectivity", _prop_rho_bijectivity),
    ("bundle.action_law", _prop_action_law),
    ("bundle.dp_full_routes", _prop_dp_full_routes),
    ("bundle.transporter", _prop_transporter),
    ("projective.line_bundle_exp", _prop_line_bundle_exp),
    ("projective.half_angle_line", _prop_half_angle_line),
    ("projective.moebius_seam", _prop_moebius_seam),
)


def run_verification(cfg: VerifyConfig) -> VerifyReport:
    """Run every named property on independent seeded streams."""
    start = time.perf_counter()
    results = []
    for stream, (name, fn) in enumerate(PROPERTIES):
        rng = sp.make_rng(cfg.seed, stream)
        try:
            samples, max_error, passed = fn(cfg, rng)
        except GeometryError:
            # a domain error raised mid-check is a failed property, not a crash
            samples, max_error, passed = 0, float("inf"), False
        results.append(
            PropertyResult(
                name=name,
                samples=int(samples),
                max_error=float(max_error),
                passed=bool(passed),
            )
        )
    return VerifyReport(
        properties=tuple(results),
        passed=all(r.passed for r in results),
        wall_time_s=time.perf_counter() - start,
    )
