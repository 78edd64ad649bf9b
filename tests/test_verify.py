"""The verify harness itself: a broken library function must fail its property."""

import dataclasses
import json
import math

import numpy as np
import pytest

from cartanbundle import Motion, Screw
from cartanbundle import bundle, grassmann, liegroup, matcore, projective, sampling, serialize
from cartanbundle.errors import IllConditionedSpectrumError
from cartanbundle.verify import PROPERTIES, VerifyConfig, _Mixed, run_verification, series_exp, svd_projector
from lapack_spy import spy

CFG = VerifyConfig(n=4, p=2, samples=5, seed=5)


def _results(cfg=CFG):
    return {r.name: r for r in run_verification(cfg).properties}


def _run_one(name, cfg=CFG):
    stream = [entry[0] for entry in PROPERTIES].index(name)
    return PROPERTIES[stream][1](cfg, sampling.make_rng(cfg.seed, stream))


def test_table_shape():
    assert len(PROPERTIES) == 27
    assert len({name for name, _ in PROPERTIES}) == 27
    for stream, (name, row) in enumerate(PROPERTIES):
        out = row(CFG, sampling.make_rng(CFG.seed, stream))
        assert isinstance(out, tuple) and len(out) == 3, name
        samples, max_error, passed = out
        assert samples >= 1 and math.isfinite(max_error) and passed, name
        # one bound per error, in the same order
        _, columns = row.errors(CFG, sampling.make_rng(CFG.seed, stream))
        bounds = row.bound(CFG)
        assert len(columns) == (len(bounds) if isinstance(bounds, tuple) else 1), name


def test_nan_answer_fails_its_property(monkeypatch):
    # Y_omega v, the translation of the exponential, comes back NaN
    exp = liegroup.se_exp
    monkeypatch.setattr(liegroup, "se_exp", lambda xi: Motion(exp(xi).R, np.full(np.shape(xi.v), math.nan)))
    results = _results()
    for name in ("liegroup.y_omega_identity", "liegroup.y_omega_roundtrip"):
        assert not results[name].passed, name
    assert results["liegroup.group_axioms"].passed


@pytest.mark.parametrize("bad_sample", [0, 2, 4])
def test_one_nan_sample_fails_the_run(monkeypatch, bad_sample):
    # a NaN in any one sample of the stack, first or later, is the reported error
    calls = []
    exp = liegroup.se_exp

    def flaky(xi):
        calls.append(np.shape(xi.omega)[:-2])
        g = exp(xi)
        g.X[bad_sample] = math.nan
        return g

    monkeypatch.setattr(liegroup, "se_exp", flaky)
    samples, max_error, passed = _run_one("liegroup.y_omega_identity")
    assert calls == [(CFG.samples,)] and samples == CFG.samples  # one stacked call
    assert math.isnan(max_error) and not passed


@pytest.mark.parametrize("stream", range(len(PROPERTIES)), ids=[entry[0] for entry in PROPERTIES])
def test_every_sample_keeps_its_errors_until_the_bound(stream):
    row = PROPERTIES[stream][1]
    samples, columns = row.errors(CFG, sampling.make_rng(CFG.seed, stream))
    bounds = row.bound(CFG)
    assert len(columns) == (len(bounds) if isinstance(bounds, tuple) else 1)
    # one error per sample, each row drawing cfg.samples of them
    assert [len(c) for c in columns] == [samples] * len(columns)
    assert samples == CFG.samples
    errors = [float(e) for column in columns for e in column]
    worst = math.nan if any(map(math.isnan, errors)) else max([0.0, *errors])
    assert row(CFG, sampling.make_rng(CFG.seed, stream))[1] == worst


def test_a_nan_error_stays_at_its_sample(monkeypatch):
    exp = liegroup.se_exp

    def flaky(xi):
        g = exp(xi)
        g.X[3] = math.nan
        return g

    monkeypatch.setattr(liegroup, "se_exp", flaky)
    stream = [entry[0] for entry in PROPERTIES].index("liegroup.y_omega_identity")
    (column,) = PROPERTIES[stream][1].errors(CFG, sampling.make_rng(CFG.seed, stream))[1]
    assert [math.isnan(e) for e in column] == [False, False, False, True, False]


def test_a_raise_in_a_stacked_kernel_carries_the_sample_index(monkeypatch):
    # the third rotation of the projection row, doubled, fails the SO(n) check of the map
    project = bundle.double_projection

    def third_doubled(A, X, sig, tol):
        A = A.copy()
        A[2] *= 2.0
        return project(A, X, sig, tol)

    monkeypatch.setattr(bundle, "double_projection", third_doubled)
    stream = [entry[0] for entry in PROPERTIES].index("bundle.projection_identity")
    with pytest.raises(IllConditionedSpectrumError) as raised:
        PROPERTIES[stream][1].errors(CFG, sampling.make_rng(CFG.seed, stream))
    assert raised.value.context["index"] == 2
    # in a run, the raise fails that row alone
    results = _results()
    row = results["bundle.projection_identity"]
    assert (row.samples, row.passed) == (0, False)
    assert all(r.passed for name, r in results.items() if name != row.name)


def test_false_predicate_fails_its_property(monkeypatch):
    assert _run_one("bundle.q_invariance")[2]
    monkeypatch.setattr(bundle, "in_Q", lambda g, sig, tol: np.zeros(np.shape(g.R)[:-2], bool))
    samples, max_error, passed = _run_one("bundle.q_invariance")
    assert samples == CFG.samples and math.isfinite(max_error) and not passed


def test_one_qr_per_property(monkeypatch):
    # the samples are drawn as one stack, so the QR count does not grow with them
    calls = []
    spy(monkeypatch, lambda decomposition, a: calls.append(a), ("qr",))
    counts = []
    for samples in (5, 50):
        calls.clear()
        assert _run_one("bundle.tau_properties", VerifyConfig(n=4, p=2, samples=samples, seed=5))[2]
        counts.append(len(calls))
    assert counts[0] == counts[1] >= 1


def _failed(results):
    return {name for name, r in results.items() if not r.passed}


def test_a_rotation_at_half_the_angle_fails_the_seam_row(monkeypatch):
    # moebius_grid writes its line_angle column as theta / 2 whatever the
    # rotation is; the seam row reads the motion and the frame. Turned by
    # theta / 2, an odd winding ends at -I, and m = 2 carries its frame to
    # -e_1, not +e_1.
    block = projective._line_block
    monkeypatch.setattr(projective, "_line_block", lambda theta, U: block(0.5 * theta, U))
    results = _results()
    row = results["projective.moebius_seam"]
    assert _failed(results) == {"projective.line_bundle_exp", "projective.half_angle_line", row.name}
    assert row.samples == CFG.samples and math.isfinite(row.max_error)


def test_upright_frames_fail_the_seam_row(monkeypatch):
    # frames flipped to keep F[0] >= 0 span the same lines, so only the seam
    # row, which reads the frame an odd winding turns over, sees them
    plane_of = projective.rho0

    def upright(R):
        F = plane_of(R).frame
        return grassmann.plane_from_frame(F * np.copysign(1.0, F[..., :1, :]))

    monkeypatch.setattr(projective, "rho0", upright)
    results = _results()
    row = results["projective.moebius_seam"]
    assert _failed(results) == {row.name}
    assert row.samples == CFG.samples and row.max_error >= 1.0


def test_a_unit_half_angle_factor_fails_the_seam_row(monkeypatch):
    # with f = 1 for sin(t) / t, the translation is lam times the carried
    # frame, so the geodesic does not close at theta = 2 pi m
    monkeypatch.setattr(bundle, "_factors", lambda s, sin_t: np.ones_like(s))
    samples, max_error, passed = _run_one("projective.moebius_seam")
    assert samples == CFG.samples and math.isfinite(max_error) and not passed


def test_a_symmetric_wedge_fails_the_wedge_row(monkeypatch):
    # the third wedge of the stack gets +1 at both of its entries, so W + W^T is not 0
    wedge = matcore._wedge

    def third_symmetric(i, j, n):
        W = wedge(i, j, n)
        W[2] = np.abs(W[2])
        return W

    monkeypatch.setattr(matcore, "_wedge", third_symmetric)
    results = _results()
    row = results["matcore.wedge_antisymmetry"]
    assert _failed(results) == {row.name}
    assert row.samples == CFG.samples and row.max_error == math.sqrt(8.0)


def test_a_canonical_form_off_its_rotation_fails_the_reconstruction_row(monkeypatch):
    # canonical_rotation_form does not check that its form rebuilds R; this
    # row does, on every sample. Q turned by 1e-6 in the (1, 2) plane gives
    # the form of G R G^T instead of R.
    assemble = matcore._assemble_form

    def turned(Q, s, rotation):
        G = np.eye(Q.shape[-1])
        G[:2, :2] = [[math.cos(1e-6), -math.sin(1e-6)], [math.sin(1e-6), math.cos(1e-6)]]
        return assemble(G @ Q, s, rotation)

    monkeypatch.setattr(matcore, "_assemble_form", turned)
    results = _results()
    row = results["matcore.canonical_form_reconstruction"]
    assert _failed(results) == {row.name}
    assert row.samples == CFG.samples and math.isfinite(row.max_error)


def test_a_dp_log_full_off_its_exponential_fails_the_dp_full_routes_row(monkeypatch):
    # dp_log_full does not map its v forward again; this row checks the round trip
    log_full = bundle.dp_log_full

    def scaled(s):
        xi = log_full(s)
        return bundle.DpElement(xi.gen, xi.v * (1.0 + 1e-6))

    monkeypatch.setattr(bundle, "dp_log_full", scaled)
    results = _results()
    row = results["bundle.dp_full_routes"]
    assert _failed(results) == {row.name}
    assert row.samples == CFG.samples and math.isfinite(row.max_error)


def test_tightened_bound_fails_exactly_the_rows_that_read_it():
    # every plane comparison reads tol.plane; at 1e-30 only rounding is left to fail it
    tol = dataclasses.replace(CFG.tol, plane=1e-30)
    results = _results(dataclasses.replace(CFG, tol=tol))
    failed = {name for name, r in results.items() if not r.passed}
    assert failed == {
        "grassmann.cartan_roundtrips",
        "grassmann.rho0_equivariance",
        "projective.half_angle_line",
    }
    assert all(math.isfinite(results[name].max_error) for name in failed)


FIBER_ROWS = {
    "bundle.action_law", "bundle.dp_full_routes", "bundle.q_invariance", "bundle.rho_bijectivity",
    "bundle.rho_equivariance", "bundle.tau_properties", "bundle.transporter",
}


def test_a_fiber_bound_no_fiber_meets_fails_every_row_that_builds_a_bundle_value():
    # Every plane, bundle point and tau output a row builds is certified under
    # cfg.tol, so q_invariance, whose tau output was certified under the
    # defaults, fails with the rest.
    results = _results(dataclasses.replace(CFG, tol=dataclasses.replace(CFG.tol, fiber=1e-20)))
    assert {name for name, r in results.items() if not r.passed} == FIBER_ROWS


def test_an_orthonormality_bound_no_frame_meets_fails_the_projector_row():
    # its planes are checked under cfg.tol, not under the defaults
    results = _results(dataclasses.replace(CFG, tol=dataclasses.replace(CFG.tol, orth=1e-20)))
    assert not results["matcore.projector_idempotent_symmetric"].passed
    assert not results["bundle.q_invariance"].passed


# Each row that raises at (8, 3), 10 samples, seed 5 and tol.orth 1e-20, with
# its error code and the index of its failing sample in the row's draw.
ORTH_RAISES = {
    "matcore.projector_idempotent_symmetric": ("degenerate_spanning_set", 0),
    "matcore.canonical_form_reconstruction": ("ill_conditioned_spectrum", 7),
    "matcore.frame_completion": ("degenerate_spanning_set", 0),
    "liegroup.log_exp_roundtrip": ("ill_conditioned_spectrum", 0),
    "grassmann.q0_invariance": ("ill_conditioned_spectrum", 0),
    "grassmann.cartan_roundtrips": ("degenerate_spanning_set", 0),
    "grassmann.rho0_equivariance": ("degenerate_spanning_set", 0),
    "grassmann.dp_log0_roundtrip": ("ill_conditioned_spectrum", 0),
    "bundle.q_invariance": ("ill_conditioned_spectrum", 0),
    "bundle.tau_properties": ("ill_conditioned_spectrum", 0),
    "bundle.projection_identity": ("ill_conditioned_spectrum", 0),
    "bundle.rho_equivariance": ("ill_conditioned_spectrum", 0),
    "bundle.rho_bijectivity": ("ill_conditioned_spectrum", 0),
    "bundle.action_law": ("degenerate_spanning_set", 0),
    "bundle.dp_full_routes": ("ill_conditioned_spectrum", 0),
    "bundle.transporter": ("degenerate_spanning_set", 0),
    "projective.half_angle_line": ("ill_conditioned_spectrum", 4),
}


def test_a_row_that_raises_keeps_its_error_code_and_sample_index():
    """Only a row that raised carries "error"; its code, detail and context survive into strict JSON."""
    cfg = VerifyConfig(n=8, p=3, samples=10, seed=5, tol=dataclasses.replace(CFG.tol, orth=1e-20))

    def reject(token):
        raise ValueError(f"non-standard JSON token {token}")

    report = json.loads(serialize.dumps(run_verification(cfg).to_json()), parse_constant=reject)
    raised = {}
    for row in report["properties"]:
        if "error" not in row:
            assert row["pass"] and list(row) == ["max_error", "name", "pass", "samples"]
            continue
        error = row["error"]
        assert (row["samples"], row["max_error"], row["pass"]) == (0, None, False)
        assert sorted(error) == ["code", "context", "detail"] and error["detail"]
        raised[row["name"]] = (error["code"], error["context"]["index"])
    assert raised == ORTH_RAISES
    assert sorted(code for code, _ in raised.values()).count("degenerate_spanning_set") == 6


@pytest.mark.parametrize(
    "samples, seed", [(2.5, 5), (True, 5), ("5", 5), (0, 5), (5, 1.5), (5, None), (5, False)]
)
def test_samples_and_seed_are_integers(samples, seed):
    # samples=2.5 let a raw TypeError escape run_verification, and True ran as 1
    with pytest.raises(ValueError, match="integers"):
        VerifyConfig(n=4, p=2, samples=samples, seed=seed)


@pytest.mark.parametrize(
    "tol", [None, {"orth": 1e-9}, 1e-9, dataclasses.asdict(CFG.tol)], ids=["None", "dict", "float", "asdict"]
)
def test_tol_is_a_tolerances(tol):
    # tol=None raised a raw AttributeError from inside the first row that read it
    with pytest.raises(ValueError, match="Tolerances"):
        VerifyConfig(n=4, p=2, samples=2, tol=tol)


def test_numpy_samples_and_seed_run_as_their_values():
    cfg = VerifyConfig(n=2, p=1, samples=np.int64(3), seed=np.int32(5))
    report, same = run_verification(cfg), run_verification(VerifyConfig(n=2, p=1, samples=3, seed=5))
    assert report.passed and report.properties == same.properties


# The one-sample checks of twenty-one of the rows, which check whole stacks
# through the library's kernels. Each calls only public maps, once per
# sample; the rows must give these errors, sample by sample and bit for bit.


def _dist(a: Motion, b: Motion) -> float:
    return float(np.linalg.norm(a.homogeneous() - b.homogeneous()))


def _point(cfg, F, Y):
    return bundle.bundle_point(grassmann.plane_from_frame(F, cfg.tol), Y)


def _point_dist(a, b) -> float:
    plane = float(np.linalg.norm(a.plane.projector - b.plane.projector))
    return max(plane, float(np.linalg.norm(a.fiber - b.fiber)))


def _frame_drift(cfg, s) -> float:
    """|P - P'| for P the projector of the plane s carries, P' that of the plane its public check finds."""
    checked = bundle.CartanMotion(s.motion, s.sig, cfg.tol)
    return float(np.linalg.norm(bundle.rho(s).plane.projector - bundle.rho(checked).plane.projector))


def _paper_line(theta: float, U: np.ndarray) -> np.ndarray:
    return math.cos(0.5 * theta) * np.eye(len(U))[0] + math.sin(0.5 * theta) * U


def _wedge_antisymmetry(cfg, i, j):
    W = matcore._wedge(i, j, cfg.n)
    return (float(np.linalg.norm(W + W.T)),)


def _canonical_form(cfg, R):
    Q, angles = matcore.canonical_rotation_form(R, cfg.tol)
    return (float(np.linalg.norm(Q @ matcore._blocks(angles, len(R), rotation=True) @ Q.T - R)),)


def _involution_eigenspace(cfg, A):
    S = A @ cfg.sig.matrix @ A.T
    F = matcore.eigenspace_of_symmetric_involution(S, -1, cfg.tol)
    return (float(np.linalg.norm(S @ F + F)),)


def _projector(cfg, F):
    P = grassmann.plane_from_frame(F, cfg.tol).projector
    return (max(float(np.linalg.norm(P @ P - P)), float(np.linalg.norm(P - P.T))),)


def _completion(cfg, F):
    plane = grassmann.plane_from_frame(F, cfg.tol)
    A = matcore.complete_to_special_orthogonal(plane.frame, cfg.tol)
    frame = float(np.linalg.norm(matcore._projector(A[:, : cfg.p]) - plane.projector))
    return (max(abs(float(np.linalg.det(A)) - 1.0), frame),)


def _group_axioms(cfg, R, X):
    g1, g2, g3 = map(Motion, R, X)
    mul = liegroup.se_mul
    identity = liegroup.identity_motion(cfg.n)
    return (max(_dist(mul(mul(g1, g2), g3), mul(g1, mul(g2, g3))), _dist(mul(g1, liegroup.se_inv(g1)), identity)),)


def _exp_series(cfg, omega, v):
    xi = Screw(omega, v)
    return (float(np.linalg.norm(liegroup.se_exp(xi).homogeneous() - series_exp(xi.matrix()))),)


def _sigma0_automorphism(cfg, R):
    R1, R2 = R

    def sigma0(M):
        return grassmann.sigma0(M, cfg.sig)

    involution = float(np.linalg.norm(sigma0(sigma0(R1)) - R1))
    return involution, float(np.linalg.norm(sigma0(R1 @ R2) - sigma0(R1) @ sigma0(R2)))


def _q0_invariance(cfg, B, A):
    sig = cfg.sig
    R = grassmann.dp_exp(grassmann.DpGenerator(cfg.p, cfg.n - cfg.p, B), cfg.tol).mat
    acted = grassmann.twisted_act0(A, R, sig, cfg.tol)
    M = acted @ sig.matrix
    return float(not grassmann.in_Q0(acted, sig, cfg.tol)), float(np.linalg.norm(M @ M - np.eye(cfg.n)))


def _fixed_points(cfg, R, X, Rh, Xh):
    sig, p = cfg.sig, cfg.p

    def residual(g):
        r = _dist(bundle.sigma(g, sig), g)
        a, b, c = np.linalg.norm(g.R[:p, p:]), np.linalg.norm(g.R[p:, :p]), np.linalg.norm(g.X[:p])
        off = math.sqrt(a * a + b * b + c * c)  # squared as x * x, as verify squares
        return r, abs(r - 2.0 * off) / (1.0 + r)

    g, h = Motion(R, X), Motion(Rh, Xh)
    r, agree = residual(g)
    sorted_ok = bundle.is_fixed_point(g, sig, cfg.tol) and not bundle.is_fixed_point(h, sig, cfg.tol)
    return r, max(agree, residual(h)[1]), float(not sorted_ok)


def _projection_identity(cfg, A, X):
    D = bundle.double_projection(A, X, cfg.sig, cfg.tol)
    return (float(np.linalg.norm(D - 2.0 * svd_projector(A[:, : cfg.p]) @ X)),)


def _grassmann_roundtrips(cfg, F, A):
    sig = cfg.sig
    plane = grassmann.plane_from_frame(F, cfg.tol)
    embedded = grassmann.CartanRotation(grassmann.cartan_embed0(plane).mat, sig, cfg.tol)
    err_plane = float(np.linalg.norm(grassmann.rho0(embedded).projector - plane.projector))
    R = grassmann.twisted_act0(A, np.eye(cfg.n), sig, cfg.tol)
    cr = grassmann.CartanRotation.certify(R, sig, cfg.tol)
    return err_plane, float(np.linalg.norm(grassmann.cartan_embed0(grassmann.rho0(cr)).mat - R))


def _rho0_equivariance(cfg, F, A):
    sig = cfg.sig
    cr = grassmann.cartan_embed0(grassmann.plane_from_frame(F, cfg.tol))
    acted = grassmann.CartanRotation.certify(grassmann.twisted_act0(A, cr.mat, sig, cfg.tol), sig, cfg.tol)
    rhs = grassmann.rotate_plane(A, grassmann.rho0(cr))
    return (float(np.linalg.norm(grassmann.rho0(acted).projector - rhs.projector)),)


def _q_invariance(cfg, R, X):
    sig = cfg.sig
    s = bundle.tau(Motion(R[0], X[0]), sig, cfg.tol)
    a = Motion(R[1], X[1])
    acted = bundle.twisted_act(a, s.motion, sig, cfg.tol)
    diff = liegroup.se_mul(bundle.sigma(acted, sig), acted).homogeneous() - np.eye(cfg.n + 1)
    err = float(np.linalg.norm(diff)) / (1.0 + np.linalg.norm(acted.X))
    generic = liegroup.se_mul(liegroup.se_mul(a, s.motion), bundle.sigma(liegroup.se_inv(a), sig))
    scale = 1.0 + np.linalg.norm(a.X) + np.linalg.norm(s.motion.X)
    return err, float(not bundle.in_Q(acted, sig, cfg.tol)), _dist(acted, generic) / scale


def _rho_equivariance(cfg, R, X):
    sig = cfg.sig
    s = bundle.tau(Motion(R[0], X[0]), sig, cfg.tol)
    a = Motion(R[1], X[1])
    acted = bundle.CartanMotion.certify(bundle.twisted_act(a, s.motion, sig, cfg.tol), sig, cfg.tol)
    return (_point_dist(bundle.rho(acted), bundle.bundle_act(a, bundle.rho(s), sig)),)


def _rho_bijectivity(cfg, R, X, F, Y):
    s = bundle.tau(Motion(R, X), cfg.sig, cfg.tol)
    s2 = bundle.rho_inv(bundle.rho(s))
    b = _point(cfg, F, Y)
    s3 = bundle.rho_inv(b)
    return (
        max(_dist(s2.motion, s.motion), _point_dist(bundle.rho(s3), b)),
        max(_frame_drift(cfg, s2), _frame_drift(cfg, s3)),
    )


def _action_law(cfg, R, X, F, Y):
    sig = cfg.sig
    a1, a2 = map(Motion, R, X)
    b = _point(cfg, F, Y)
    lhs = bundle.bundle_act(liegroup.se_mul(a1, a2), b, sig)
    return (_point_dist(lhs, bundle.bundle_act(a1, bundle.bundle_act(a2, b, sig), sig)),)


def _transporter(cfg, F, Y):
    src, dst = (_point(cfg, *sample) for sample in zip(F, Y))
    a = bundle.find_transporter(src, dst)
    return (_point_dist(bundle.bundle_act(a, src, cfg.sig), dst),)


def _line_bundle_exp(cfg, U, theta, lam):
    nn, theta, lam = len(U), float(theta), float(lam)
    m = projective.line_bundle_exp(theta, U, lam)
    E1 = np.eye(nn)[0]
    xi = Screw(-theta * (np.outer(E1, U) - np.outer(U, E1)), lam * E1)
    V = _paper_line(theta, U)
    return (max(_dist(m, liegroup.se_exp(xi)), float(np.linalg.norm(m.X - V * (V @ m.X)))),)


def _half_angle_line(cfg, U, theta):
    theta, sig = float(theta), grassmann.Signature(1, len(U) - 1)
    V = _paper_line(theta, U)
    cr = grassmann.CartanRotation.certify(projective.rotation_in_plane(theta, U), sig, cfg.tol)
    planes = (grassmann.rho0(cr), projective.half_angle_line(theta, U))
    return (max(float(np.linalg.norm(plane.projector - np.outer(V, V))) for plane in planes),)


def _moebius_seam(cfg, m, lam):
    # one winding m: the geodesic closes at theta = 2 pi m and carries its frame back as (-1)^m e_1
    theta, U = 2.0 * math.pi * int(m), np.eye(2)[1]
    closure = _dist(projective.line_bundle_exp(theta, U, lam), liegroup.identity_motion(2)) / (1.0 + abs(lam))
    F = projective.half_angle_line(theta, U).frame[:, 0]
    return closure, float(np.linalg.norm(F - (-1.0) ** int(m) * np.eye(2)[0]))


ONE_SAMPLE_CHECKS = {
    "matcore.wedge_antisymmetry": _wedge_antisymmetry,
    "matcore.projector_idempotent_symmetric": _projector,
    "matcore.canonical_form_reconstruction": _canonical_form,
    "matcore.involution_eigenspace": _involution_eigenspace,
    "matcore.frame_completion": _completion,
    "liegroup.group_axioms": _group_axioms,
    "liegroup.exp_matches_series": _exp_series,
    "grassmann.sigma0_automorphism": _sigma0_automorphism,
    "grassmann.q0_invariance": _q0_invariance,
    "bundle.fixed_point_characterization": _fixed_points,
    "bundle.projection_identity": _projection_identity,
    "grassmann.cartan_roundtrips": _grassmann_roundtrips,
    "grassmann.rho0_equivariance": _rho0_equivariance,
    "bundle.q_invariance": _q_invariance,
    "bundle.rho_equivariance": _rho_equivariance,
    "bundle.rho_bijectivity": _rho_bijectivity,
    "bundle.action_law": _action_law,
    "bundle.transporter": _transporter,
    "projective.line_bundle_exp": _line_bundle_exp,
    "projective.half_angle_line": _half_angle_line,
    "projective.moebius_seam": _moebius_seam,
}


def _per_sample(stacks) -> list:
    """Entry i of a draw's stacks for each sample i; a mixed draw's first entry holds one stack per dimension."""
    if not isinstance(stacks[0], _Mixed):
        return list(zip(*stacks))
    samples = [None] * len(stacks[0])
    for at, group in stacks[0].groups:
        for i, entries in zip(at, zip(*group)):
            samples[i] = (*entries, *(s[i] for s in stacks[1:]))
    return samples


@pytest.mark.parametrize("n, p", [(4, 2), (8, 3), (2, 1), (6, 5), (8, 1)])
@pytest.mark.parametrize("name", sorted(ONE_SAMPLE_CHECKS))
def test_a_stacked_row_gives_the_errors_of_its_one_sample_check(name, n, p):
    cfg = VerifyConfig(n=n, p=p, samples=20, seed=5)
    stream = [entry[0] for entry in PROPERTIES].index(name)
    row = PROPERTIES[stream][1]
    samples, columns = row.errors(cfg, sampling.make_rng(cfg.seed, stream))
    draw = _per_sample(row.draw(cfg, sampling.make_rng(cfg.seed, stream), cfg.samples))
    assert len(draw) == samples
    for i, sample in enumerate(draw):
        expected = ONE_SAMPLE_CHECKS[name](cfg, *sample)
        got = np.array([column[i] for column in columns], dtype=float)
        assert got.tobytes() == np.array(expected, dtype=float).tobytes(), (i, got, expected)


@pytest.mark.parametrize("n, p", [(8, 3), (5, 2), (6, 5), (2, 1), (32, 5)])
def test_involution_eigenspace_groups_by_count_as_by_kept_columns(n, p):
    """The kept columns of each frame are a prefix of eigh's, so grouping by their count gives the errors of grouping by the columns."""
    cfg = VerifyConfig(n=n, p=p, samples=50, seed=5)
    stream = [entry[0] for entry in PROPERTIES].index("matcore.involution_eigenspace")
    (A,) = PROPERTIES[stream][1].draw(cfg, sampling.make_rng(cfg.seed, stream), cfg.samples)
    S = A @ cfg.sig.matrix @ A.mT
    V, keep = matcore._eigenspace(S, -1, cfg.tol)
    assert np.array_equal(keep, np.arange(n) < np.count_nonzero(keep, axis=-1)[:, None])  # each keep is a prefix
    expected = np.empty(len(A))
    for cols in np.unique(keep, axis=0):
        at = (keep == cols).all(axis=-1)
        F = V[at][..., cols]
        expected[at] = matcore._norm(S[at] @ F + F, 2)
    got = PROPERTIES[stream][1].errors(cfg, sampling.make_rng(cfg.seed, stream))[1][0]
    assert got.tobytes() == expected.tobytes()


@pytest.mark.parametrize("n, p", [(4, 2), (8, 4), (8, 3)])
def test_involution_eigenspace_fails_where_keep_marks_the_wrong_columns(n, p, monkeypatch):
    """A keep of the +1 eigenvectors fails the row, also at p = q, where it keeps as many columns as the -1 one."""
    cfg = VerifyConfig(n=n, p=p, samples=20, seed=5)
    stream = [entry[0] for entry in PROPERTIES].index("matcore.involution_eigenspace")
    row = PROPERTIES[stream][1]
    assert row(cfg, sampling.make_rng(cfg.seed, stream))[2]
    eigenspace = matcore._eigenspace
    monkeypatch.setattr(matcore, "_eigenspace", lambda S, eigenvalue, tol: eigenspace(S, -eigenvalue, tol))
    _, max_error, passed = row(cfg, sampling.make_rng(cfg.seed, stream))
    assert not passed and max_error >= 1.0
